"""Runtime class metadata — the analogue of Jikes RVM's ``RVMClass``.

An :class:`RVMClass` carries everything the JIT bakes into machine code and
everything the GC needs to trace instances:

* flattened instance-field layout, superclass fields first;
* the object shape the collector, the object model and the lazy sweep all
  read: reference cell offsets, fixed cell count (``None`` for arrays,
  whose size is in their length cell) and whether array elements are
  references;
* JTOC indices for static fields;
* the TIB (:mod:`repro.vm.tib`) mapping virtual-method slots to code.

Dynamic updates rename the old version's metadata (``v131_User``-style) and
install a fresh ``RVMClass`` for the new version — see
:func:`repro.dsu.install.install_classes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bytecode.classfile import ClassFile
from ..lang.types import parse_descriptor
from .heap import HEADER_CELLS


@dataclass
class FieldSlot:
    """One instance field in the flattened object layout."""

    name: str
    descriptor: str
    is_ref: bool
    owner: str
    slot: int  # 0-based field slot; cell offset is HEADER_CELLS + slot

    @property
    def cell_offset(self) -> int:
        return HEADER_CELLS + self.slot


class RVMClass:
    """Runtime metadata for one loaded class (or array/string pseudo-class)."""

    KIND_CLASS = "class"
    KIND_ARRAY = "array"
    KIND_STRING = "string"

    def __init__(
        self,
        class_id: int,
        name: str,
        kind: str = KIND_CLASS,
        classfile: Optional[ClassFile] = None,
        superclass: Optional["RVMClass"] = None,
        element_descriptor: Optional[str] = None,
    ):
        self.id = class_id
        self.name = name
        self.kind = kind
        self.classfile = classfile
        self.superclass = superclass
        self.element_descriptor = element_descriptor
        #: flattened instance fields, superclass first
        self.field_layout: List[FieldSlot] = []
        self.field_offsets: Dict[str, FieldSlot] = {}
        #: the object shape: cell offsets holding references, cells per
        #: object (``None`` for arrays) and whether array elements are
        #: references — the field rule applied to the element descriptor
        self.ref_offsets: Tuple[int, ...] = ()
        self.fixed_cells: Optional[int] = HEADER_CELLS  # + fields, at layout
        self.elements_are_refs = False
        if kind == self.KIND_ARRAY:
            self.fixed_cells = None
            self.elements_are_refs = parse_descriptor(
                element_descriptor
            ).is_reference()
        elif kind == self.KIND_STRING:
            self.fixed_cells = HEADER_CELLS + 1  # the payload index
        #: static field name -> JTOC index
        self.static_slots: Dict[str, int] = {}
        #: static field name -> is_reference (parallel to static_slots)
        self.static_is_ref: Dict[str, bool] = {}
        from .tib import TIB  # local import to avoid a cycle

        self.tib: TIB = TIB(self)
        #: set when a dynamic update replaces this class; the old metadata
        #: stays reachable under its renamed identity until collected
        self.obsolete = False
        #: source release this class was loaded from (diagnostics)
        self.version_tag = classfile.source_version if classfile else ""

    # ------------------------------------------------------------------
    # layout construction

    def build_instance_layout(self) -> None:
        """Assign field slots: superclass layout first, then own fields in
        declaration order. Requires the superclass layout to be built."""
        assert self.kind == self.KIND_CLASS and self.classfile is not None
        self.field_layout = []
        if self.superclass is not None:
            self.field_layout.extend(self.superclass.field_layout)
        next_slot = len(self.field_layout)
        for field_info in self.classfile.fields:
            if field_info.is_static:
                continue
            field_type = parse_descriptor(field_info.descriptor)
            slot = FieldSlot(
                field_info.name,
                field_info.descriptor,
                field_type.is_reference(),
                self.name,
                next_slot,
            )
            self.field_layout.append(slot)
            next_slot += 1
        self.field_offsets = {s.name: s for s in self.field_layout}
        self.ref_offsets = tuple(
            s.cell_offset for s in self.field_layout if s.is_ref
        )
        self.fixed_cells = HEADER_CELLS + len(self.field_layout)

    def field_slot(self, name: str) -> FieldSlot:
        return self.field_offsets[name]

    # ------------------------------------------------------------------
    # hierarchy

    def is_subclass_of(self, other: "RVMClass") -> bool:
        current: Optional[RVMClass] = self
        while current is not None:
            if current is other:
                return True
            current = current.superclass
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RVMClass {self.name} id={self.id} kind={self.kind}>"


class ClassRegistry:
    """All loaded runtime classes, addressable by id and by name."""

    def __init__(self):
        self.by_id: List[RVMClass] = []
        self.by_name: Dict[str, RVMClass] = {}

    def create(self, name: str, **kwargs) -> RVMClass:
        rvmclass = RVMClass(len(self.by_id), name, **kwargs)
        self.by_id.append(rvmclass)
        if name in self.by_name:
            raise ValueError(f"class {name} already registered")
        self.by_name[name] = rvmclass
        return rvmclass

    def get(self, name: str) -> RVMClass:
        return self.by_name[name]

    def maybe_get(self, name: str) -> Optional[RVMClass]:
        return self.by_name.get(name)

    def by_class_id(self, class_id: int) -> RVMClass:
        return self.by_id[class_id]

    def rename(self, rvmclass: RVMClass, new_name: str) -> None:
        """Rename class metadata (used by DSU to retire old versions:
        ``User`` becomes ``v131_User``)."""
        if new_name in self.by_name:
            raise ValueError(f"class {new_name} already registered")
        del self.by_name[rvmclass.name]
        rvmclass.name = new_name
        self.by_name[new_name] = rvmclass

    def loaded_names(self) -> List[str]:
        return list(self.by_name.keys())
