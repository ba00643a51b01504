"""The two-tier adaptive compiler.

Tier 1 (*base*) resolves symbolic bytecode one-for-one into machine code:
field references become baked cell offsets, virtual calls become baked TIB
slot indices, statics become baked JTOC indices and method-entry ids. The
one-for-one property is what makes on-stack replacement of base frames an
identity pc/locals mapping (paper §3.2: OSR is only applied to base-compiled
category-(2) methods).

Tier 2 (*opt*) first inlines small static/special callees
(:mod:`repro.vm.inlining`), re-verifies the spliced bytecode to regenerate
stack maps, then resolves. Methods are promoted when their invocation count
crosses ``OPT_THRESHOLD`` — the adaptive system the paper leans on to
re-optimize updated methods after an update ("the adaptive compilation
system naturally optimizes updated methods further if they execute
frequently", §1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..bytecode.classfile import MethodInfo
from ..bytecode.instructions import Instr, referenced_classes
from ..bytecode.verifier import ClassTable, Verifier
from ..lang.types import parse_method_descriptor
from .inlining import inline_method
from .machinecode import BASE_TIER, OPT_TIER, CompiledMethod, MethodEntry

if TYPE_CHECKING:  # pragma: no cover
    from .vm import VM

#: invocations before a method is promoted to the optimizing tier
OPT_THRESHOLD = 50


class JITCompiler:
    """Compiles method entries to machine code against the live VM state."""

    def __init__(self, vm: "VM"):
        self.vm = vm
        #: statistics
        self.base_compiles = 0
        self.opt_compiles = 0

    # ------------------------------------------------------------------
    # entry points

    def ensure_compiled(self, entry: MethodEntry) -> CompiledMethod:
        """Return runnable code for ``entry``, compiling at base tier if
        nothing is installed."""
        code = entry.active_code()
        if code is not None:
            return code
        return self.compile_base(entry)

    def code_for_call(self, entry: MethodEntry) -> CompiledMethod:
        """One invocation of ``entry`` by the interpreter: count it (every
        dispatch, so a warm TIB cache cannot hide hotness), promote it to
        the opt tier once hot, and return the code it runs."""
        entry.invocations += 1
        code = entry.opt_code
        if code is None:
            if entry.invocations >= OPT_THRESHOLD and not entry.info.is_native:
                return self.compile_opt(entry)
            code = entry.base_code
            if code is None:
                code = self.compile_base(entry)
        return code

    # ------------------------------------------------------------------
    # tiers

    def compile_base(self, entry: MethodEntry) -> CompiledMethod:
        vm = self.vm
        with vm.tracer.span("jit.base", "jit", method=entry.qualified_name):
            info = entry.info
            verified = self._verify(
                entry.owner.name, info, access_override=self._override(entry)
            )
            resolved = self._resolve(info.instructions, entry.owner.name, info)
            code = CompiledMethod(
                entry,
                BASE_TIER,
                resolved,
                verified.states,
                info.max_locals,
                referenced_classes(info.instructions),
            )
            entry.base_code = code
            self.base_compiles += 1
            vm.clock.tick(
                vm.clock.costs.jit_base_per_instr * max(1, len(resolved))
            )
        vm.metrics.inc("jit.base_compiles")
        return code

    def compile_opt(self, entry: MethodEntry) -> CompiledMethod:
        vm = self.vm
        with vm.tracer.span("jit.opt", "jit", method=entry.qualified_name):
            info = entry.info
            inline_result = inline_method(vm.classfiles, entry.owner.name, info)
            opt_info = MethodInfo(
                info.name,
                info.descriptor,
                info.is_static,
                info.is_native,
                info.access,
                inline_result.max_locals,
                inline_result.instructions,
            )
            verified = self._verify(
                entry.owner.name, opt_info, access_override=self._override(entry)
            )
            resolved = self._resolve(opt_info.instructions, entry.owner.name, opt_info)
            code = CompiledMethod(
                entry,
                OPT_TIER,
                resolved,
                verified.states,
                opt_info.max_locals,
                referenced_classes(opt_info.instructions),
                inlined=frozenset(inline_result.inlined),
            )
            entry.opt_code = code
            self.opt_compiles += 1
            vm.clock.tick(vm.clock.costs.jit_opt_per_instr * max(1, len(resolved)))
        vm.metrics.inc("jit.opt_compiles")
        return code

    # ------------------------------------------------------------------
    # internals

    def _override(self, entry: MethodEntry) -> bool:
        from ..compiler.jastadd import has_access_override

        classfile = entry.owner.classfile
        return classfile is not None and has_access_override(classfile)

    def _verify(self, class_name: str, info: MethodInfo, access_override: bool):
        table = ClassTable(self.vm.classfiles)
        return Verifier(table, access_override=access_override).verify_method(
            class_name, info
        )

    def _resolve(
        self, instructions: List[Instr], class_name: str, info: MethodInfo
    ) -> List[Instr]:
        """Resolve symbolic operands into baked numeric offsets, preserving a
        strict one-instruction-to-one-instruction mapping."""
        vm = self.vm
        resolved: List[Instr] = []
        for instr in instructions:
            op = instr.op
            if op == "NEW":
                resolved.append(Instr(op, vm.registry.get(instr.a).id))
            elif op == "NEWARRAY":
                resolved.append(Instr(op, vm.objects.array_class(instr.a).id))
            elif op in ("GETFIELD", "PUTFIELD"):
                slot = vm.registry.get(instr.a).field_slot(instr.b)
                resolved.append(Instr(op, slot.cell_offset))
            elif op in ("GETSTATIC", "PUTSTATIC"):
                owner = vm.registry.get(instr.a)
                resolved.append(Instr(op, owner.static_slots[instr.b]))
            elif op == "INVOKEVIRTUAL":
                name, descriptor = instr.b
                owner = vm.registry.get(instr.a)
                slot = owner.tib.slot_of(name, descriptor)
                params, _ = parse_method_descriptor(descriptor)
                resolved.append(Instr(op, slot, len(params)))
            elif op in ("INVOKESTATIC", "INVOKESPECIAL"):
                name, descriptor = instr.b
                entry = self._lookup_method_entry(instr.a, name, descriptor)
                params, _ = parse_method_descriptor(descriptor)
                argc = len(params) + (1 if op == "INVOKESPECIAL" else 0)
                resolved.append(Instr(op, entry.id, argc))
            else:
                resolved.append(instr)
        assert len(resolved) == len(instructions)
        return resolved

    def _lookup_method_entry(self, owner: str, name: str, descriptor: str) -> MethodEntry:
        current = owner
        while current is not None:
            entry = self.vm.methods.lookup(current, name, descriptor)
            if entry is not None:
                return entry
            rvmclass = self.vm.registry.maybe_get(current)
            if rvmclass is None or rvmclass.superclass is None:
                break
            current = rvmclass.superclass.name
        raise KeyError(f"no method entry for {owner}.{name}{descriptor}")
