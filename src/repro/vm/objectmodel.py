"""Object, array and string access over the raw heap.

All reads and writes of heap objects go through this layer, which knows the
layouts defined in :mod:`repro.vm.heap` and consults the class registry for
field offsets and reference maps.
"""

from __future__ import annotations

from typing import Optional

from ..lang.types import OBJECT_CLASS_NAME, parse_descriptor
from .heap import HEADER_CELLS, HEADER_STATUS, HEADER_TIB, NULL, Heap
from .rvmclass import ClassRegistry, RVMClass
from .strings import StringTable

STRING_CLASS_NAME = "string"

#: array payload layout: [length, elem0, ...] after the header
ARRAY_LENGTH_OFFSET = HEADER_CELLS
ARRAY_ELEMS_OFFSET = HEADER_CELLS + 1

#: string payload layout: [payload_index] after the header
STRING_PAYLOAD_OFFSET = HEADER_CELLS


class VMTrap(Exception):
    """A runtime error in jmini code (null deref, bad index, bad cast...).

    The scheduler kills the offending thread, like an uncaught exception.
    """


class ObjectModel:
    """Typed access to heap objects."""

    def __init__(self, heap: Heap, registry: ClassRegistry, strings: StringTable):
        self.heap = heap
        self.registry = registry
        self.strings = strings
        self._string_class: Optional[RVMClass] = None

    # ------------------------------------------------------------------
    # pseudo-classes

    def string_class(self) -> RVMClass:
        if self._string_class is None:
            existing = self.registry.maybe_get(STRING_CLASS_NAME)
            if existing is None:
                existing = self.registry.create(
                    STRING_CLASS_NAME, kind=RVMClass.KIND_STRING
                )
            self._string_class = existing
        return self._string_class

    def array_class(self, element_descriptor: str) -> RVMClass:
        name = "[" + element_descriptor
        existing = self.registry.maybe_get(name)
        if existing is not None:
            return existing
        return self.registry.create(
            name, kind=RVMClass.KIND_ARRAY, element_descriptor=element_descriptor
        )

    # ------------------------------------------------------------------
    # allocation (raw: caller handles OutOfMemoryError / GC retry)

    def alloc_object(self, rvmclass: RVMClass) -> int:
        address = self.heap.allocate_raw(rvmclass.fixed_cells)
        self.heap.write(address + HEADER_TIB, rvmclass.id)
        self.heap.note_class_allocation(rvmclass.id)
        return address

    def alloc_array(self, array_class: RVMClass, length: int) -> int:
        if length < 0:
            raise VMTrap(f"negative array size {length}")
        address = self.heap.allocate_raw(ARRAY_ELEMS_OFFSET + length)
        self.heap.write(address + HEADER_TIB, array_class.id)
        self.heap.write(address + ARRAY_LENGTH_OFFSET, length)
        self.heap.note_class_allocation(array_class.id)
        return address

    def alloc_string(self, payload_index: int) -> int:
        string_class = self.string_class()
        address = self.heap.allocate_raw(string_class.fixed_cells)
        self.heap.write(address + HEADER_TIB, string_class.id)
        self.heap.write(address + STRING_PAYLOAD_OFFSET, payload_index)
        self.heap.note_class_allocation(string_class.id)
        return address

    def object_size_cells(self, address: int) -> int:
        size = self.class_of(address).fixed_cells
        if size is None:
            return ARRAY_ELEMS_OFFSET + self.array_length(address)
        return size

    # ------------------------------------------------------------------
    # headers

    def class_of(self, address: int) -> RVMClass:
        if address == NULL:
            raise VMTrap("null dereference")
        return self.registry.by_class_id(self.heap.read(address + HEADER_TIB))

    def status(self, address: int) -> int:
        return self.heap.read(address + HEADER_STATUS)

    def set_status(self, address: int, value: int) -> None:
        self.heap.write(address + HEADER_STATUS, value)

    def canonical_address(self, address: int) -> int:
        """Chase same-space (lazy-epoch) forwarding to the current version
        of an object. In steady state — no collection or update running —
        a non-zero status header pointing into the current space means
        "lazily transformed; the new-layout object lives there". Identity
        for NULL and for unforwarded objects."""
        while address != NULL:
            status = self.heap.read(address + HEADER_STATUS)
            if status == 0 or not self.heap.in_space(
                status, self.heap.current_space
            ):
                break
            address = status
        return address

    # ------------------------------------------------------------------
    # scalar-object fields (by resolved cell offset)

    def read_cell(self, address: int, cell_offset: int) -> int:
        if address == NULL:
            raise VMTrap("null dereference")
        return self.heap.read(address + cell_offset)

    def write_cell(self, address: int, cell_offset: int, value: int) -> None:
        if address == NULL:
            raise VMTrap("null dereference")
        self.heap.write(address + cell_offset, value)

    def read_field(self, address: int, field_name: str) -> int:
        """Field read by name (slow path: natives, transformers, tests)."""
        slot = self.class_of(address).field_slot(field_name)
        return self.heap.read(address + slot.cell_offset)

    def write_field(self, address: int, field_name: str, value: int) -> None:
        slot = self.class_of(address).field_slot(field_name)
        self.heap.write(address + slot.cell_offset, value)

    # ------------------------------------------------------------------
    # arrays

    def array_length(self, address: int) -> int:
        if address == NULL:
            raise VMTrap("null dereference (array length)")
        return self.heap.read(address + ARRAY_LENGTH_OFFSET)

    def element_cell(self, address: int, index: int) -> int:
        """The heap cell of element ``index`` (the interpreter's ALOAD and
        ASTORE index ``heap.cells`` with it directly)."""
        length = self.array_length(address)
        if not 0 <= index < length:
            raise VMTrap(f"array index {index} out of bounds (length {length})")
        return address + ARRAY_ELEMS_OFFSET + index

    def array_get(self, address: int, index: int) -> int:
        return self.heap.read(self.element_cell(address, index))

    def array_set(self, address: int, index: int, value: int) -> None:
        self.heap.write(self.element_cell(address, index), value)

    # ------------------------------------------------------------------
    # strings

    def string_payload(self, address: int) -> str:
        if address == NULL:
            raise VMTrap("null dereference (string)")
        rvmclass = self.class_of(address)
        if rvmclass.kind != RVMClass.KIND_STRING:
            raise VMTrap(f"expected string, found {rvmclass.name}")
        return self.strings.payload(self.heap.read(address + STRING_PAYLOAD_OFFSET))

    # ------------------------------------------------------------------
    # runtime type tests (CHECKCAST / INSTANCEOF)

    def is_instance(self, address: int, descriptor: str) -> bool:
        """Runtime subtype test of the object at ``address`` against a type
        descriptor. ``null`` is an instance of nothing."""
        if address == NULL:
            return False
        rvmclass = self.class_of(address)
        target = parse_descriptor(descriptor)
        target_name = getattr(target, "name", None)
        if target_name == OBJECT_CLASS_NAME:
            return True
        if rvmclass.kind == RVMClass.KIND_STRING:
            return descriptor == "S"
        if rvmclass.kind == RVMClass.KIND_ARRAY:
            return descriptor == "[" + (rvmclass.element_descriptor or "")
        if descriptor.startswith("L"):
            target_class = self.registry.maybe_get(descriptor[1:-1])
            if target_class is None:
                return False
            return rvmclass.is_subclass_of(target_class)
        return False

    def checkcast(self, address: int, descriptor: str) -> None:
        if address == NULL:
            return  # null casts to any reference type
        if not self.is_instance(address, descriptor):
            raise VMTrap(
                f"class cast: {self.class_of(address).name} is not {descriptor}"
            )
