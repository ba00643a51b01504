"""Compiled-code representation and the global method registry.

The JIT resolves symbolic bytecode into *machine code*: the same stack
instructions but with numeric operands baked in — field cell offsets, TIB
slot indices, JTOC indices, method-entry ids, runtime class ids. Baked
offsets are why the paper's category-(2) methods exist: when a dynamic
update changes a class's layout, machine code that baked the old offsets is
wrong even though its bytecode never changed.

``INVOKESTATIC``/``INVOKESPECIAL`` resolve to :class:`MethodEntry` ids in a
global registry (the JTOC-method-table analogue). A *method body* update
swaps the entry's bytecode and invalidates its compiled code without
touching callers — which is why body-only updates restrict just the changed
method (category 1), not its callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..bytecode.classfile import MethodInfo
from ..bytecode.instructions import Instr
from ..bytecode.verifier import TypeState
from .rvmclass import RVMClass

BASE_TIER = "base"
OPT_TIER = "opt"


@dataclass
class CompiledMethod:
    """Machine code for one method at one tier."""

    entry: "MethodEntry"
    tier: str
    instructions: List[Instr]
    #: per-pc abstract states (the GC stack maps, paper §3.4)
    stack_states: Dict[int, TypeState]
    max_locals: int
    #: classes whose layout constants are baked into this code
    referenced_classes: FrozenSet[str]
    #: methods whose bodies were inlined into this code (opt tier); a DSU
    #: update to any of them restricts this method too (paper §3.2)
    inlined: FrozenSet[Tuple[str, str, str]] = frozenset()
    #: the interpreter's dispatch form, decoded on first execution
    #: (:func:`repro.vm.interpreter.decode`); new code brings its own
    decoded: Optional[list] = field(default=None, repr=False, compare=False)

    @property
    def is_base(self) -> bool:
        return self.tier == BASE_TIER


class MethodEntry:
    """One method in the global registry.

    Identity is stable across method-body updates: the DSU engine swaps
    ``info`` (new bytecode) and drops compiled code; baked method-entry ids
    in callers stay valid.
    """

    def __init__(self, entry_id: int, owner: RVMClass, info: MethodInfo):
        self.id = entry_id
        self.owner = owner
        self.info = info
        self.base_code: Optional[CompiledMethod] = None
        self.opt_code: Optional[CompiledMethod] = None
        self.invocations = 0
        #: bumped every time the DSU engine replaces the bytecode
        self.bytecode_version = 0
        #: set when the owning class version was retired by an update
        self.obsolete = False

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.owner.name, self.info.name, self.info.descriptor)

    @property
    def qualified_name(self) -> str:
        return f"{self.owner.name}.{self.info.name}{self.info.descriptor}"

    def active_code(self) -> Optional[CompiledMethod]:
        return self.opt_code if self.opt_code is not None else self.base_code

    def invalidate(self) -> None:
        """Throw away all machine code (recompiled on next invocation)."""
        self.base_code = None
        self.opt_code = None

    def replace_bytecode(self, info: MethodInfo) -> None:
        """Install new bytecode (a method-body or class update) and reset
        the adaptive system's knowledge of this method.

        Profiling data is deliberately discarded: "updates to method bodies
        ... invalidate execution profiles" (paper §3.3), so the method
        restarts at the baseline tier and re-earns optimization.
        """
        self.info = info
        self.invalidate()
        self.invocations = 0
        self.bytecode_version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MethodEntry {self.id} {self.qualified_name}>"


class MethodRegistry:
    """Global table of method entries (the static-dispatch analogue of the
    JTOC's method slots)."""

    def __init__(self):
        self.entries: List[MethodEntry] = []
        self._by_key: Dict[Tuple[str, str, str], MethodEntry] = {}

    def register(self, owner: RVMClass, info: MethodInfo) -> MethodEntry:
        entry = MethodEntry(len(self.entries), owner, info)
        self.entries.append(entry)
        self._by_key[entry.key] = entry
        return entry

    def by_id(self, entry_id: int) -> MethodEntry:
        return self.entries[entry_id]

    def lookup(self, class_name: str, name: str, descriptor: str) -> Optional[MethodEntry]:
        return self._by_key.get((class_name, name, descriptor))

    def rekey(self, entry: MethodEntry) -> None:
        """Refresh the lookup key after the owner class was renamed."""
        stale = [k for k, v in self._by_key.items() if v is entry]
        for key in stale:
            del self._by_key[key]
        self._by_key[entry.key] = entry

    def all_entries(self) -> List[MethodEntry]:
        return list(self.entries)
