"""Type Information Blocks.

Every object header points (via its class id) to its class's TIB, which
"maps a method's offset to its actual implementation" (paper §3.3). Virtual
dispatch in compiled code indexes the TIB at a baked slot; the entry is
either machine code (a :class:`~repro.vm.machinecode.CompiledMethod`) or
``None``, in which case the adaptive system compiles the method on demand.

Dynamic updates invalidate TIB entries (set them to ``None``) so replaced
methods are recompiled from their new bytecode at next invocation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .machinecode import CompiledMethod, MethodEntry
    from .rvmclass import RVMClass


class TIB:
    """Virtual dispatch table for one class."""

    def __init__(self, rvmclass: "RVMClass"):
        self.rvmclass = rvmclass
        #: (name, descriptor) -> slot index
        self.slot_index: Dict[Tuple[str, str], int] = {}
        #: slot -> machine code (None = invalid, compile on demand)
        self.code: List[Optional["CompiledMethod"]] = []
        #: slot -> the method entry providing the implementation
        self.methods: List["MethodEntry"] = []

    def build(self, own_entries: Dict[Tuple[str, str], "MethodEntry"]) -> None:
        """Construct the table: inherit the superclass layout, override
        matching slots, append new virtual methods.

        ``own_entries`` maps this class's declared instance-method keys to
        their method entries (constructors and statics excluded).
        """
        parent = self.rvmclass.superclass
        if parent is not None:
            self.slot_index = dict(parent.tib.slot_index)
            self.methods = list(parent.tib.methods)
            self.code = [None] * len(self.methods)
        for key, entry in own_entries.items():
            existing = self.slot_index.get(key)
            if existing is not None:
                self.methods[existing] = entry  # override
            else:
                self.slot_index[key] = len(self.methods)
                self.methods.append(entry)
                self.code.append(None)

    def slot_of(self, name: str, descriptor: str) -> int:
        return self.slot_index[(name, descriptor)]

    def lookup(self, name: str, descriptor: str) -> Optional["MethodEntry"]:
        slot = self.slot_index.get((name, descriptor))
        if slot is None:
            return None
        return self.methods[slot]

    def invalidate_all(self) -> None:
        """Drop every machine-code pointer (forces recompilation)."""
        self.code = [None] * len(self.methods)

    def __len__(self) -> int:
        return len(self.methods)
