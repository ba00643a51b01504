"""Back-edge OSR mapping analysis (the sixth ``dsu-lint`` pass).

The two §4 aborts share one cause: a *changed* method spins in an
inescapable loop (or parks in an indefinitely-blocking accept) and never
leaves the stack, so no DSU safe point is reachable while its thread
runs. Safe-point reachability (:mod:`.reachability`) proves the abort;
this pass proves the *rescue*: for every such method it tries to build
an **OSR plan** — a remap of the live loop frame onto the new body that
the engine can execute after the retry budget burns down, instead of
aborting.

A plan is computed purely statically (no VM is instantiated):

1. **Verify both bodies.** The bytecode verifier's abstract
   interpretation reconstructs the operand-stack map and local types at
   every reachable pc of the old and the new body (old against the old
   program, new against :func:`~.semdiff.post_update_world`).
2. **Align the instruction streams.** Tokens abstract local slots to
   the canonical ids of :func:`repro.bytecode.cfg.canonical_slots`
   (parameters pinned, temporaries numbered by first use) and strip
   branch targets, so renamed/renumbered locals and shifted offsets
   still align; a longest-matching-block pass over the token streams
   yields candidate pc pairs, then a fixpoint filter drops every pair
   whose branch target does not map consistently.
3. **Match back-edges.** Every old loop head (the target of a backward
   ``JUMP`` — the interpreter's in-loop yield point, where a spinning
   frame parks) must map onto a new loop head. When the new body holds
   more copies of an identically-shaped loop than the old one did, the
   correspondence is ambiguous and the plan is refused (DSU-OM01).
4. **Check every parkable pc.** A frame can only be observed at pc 0,
   loop heads, invoke pcs (parked beneath a callee or blocked in a
   native) and native-completion pcs. Each must map to a new pc with the
   identical verified operand-stack shape (DSU-OM02).
5. **Prove the local moves.** The slot correspondence is read off the
   aligned ``LOAD``/``STORE`` pairs (the fine-grained fallback for
   renamed locals — jmini strips debug names, so slots *are* the
   variable identities) and must be consistent in both directions for
   every local live at a parkable pc (liveness is
   :func:`repro.bytecode.cfg.liveness`; DSU-OM03).
6. **Derive compensation.** A new-in-new local live at a mapped pc gets
   a compensation assignment only when every store to it in the new body
   is a provable constant (``CONST_*; STORE``) with one value — else the
   plan is refused (DSU-OM04).

Methods that cannot be modelled at all — deleted by the update, native,
descriptor changed, or failing verification — are refused with DSU-OM05.
The verified plans convert to :class:`~repro.dsu.upt.ActiveMethodMapping`
records the engine's last-resort rescue feeds to
:func:`repro.vm.osr.osr_replace_mapped`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from difflib import SequenceMatcher
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..bytecode.cfg import (
    canonical_slots, liveness, loop_heads, param_slot_count,
)
from ..bytecode.classfile import ClassFile, MethodInfo
from ..bytecode.instructions import BRANCH_OPS, Instr
from ..bytecode.verifier import ClassTable, TypeState, Verifier, VerifyError
from ..compiler.compile import compile_prelude
from ..dsu.specification import MethodKey, UpdateSpecification
from ..dsu.upt import ActiveMethodMapping, PreparedUpdate
from .callgraph import CallGraph, build_call_graph
from .closure import RestrictionClosure, compute_closure
from .reachability import blocking_native_calls, never_return_closure
from .semdiff import post_update_world
from .report import (
    CODE_OSR_BACKEDGE,
    CODE_OSR_COMPENSATION,
    CODE_OSR_LOCALS,
    CODE_OSR_STACK,
    CODE_OSR_UNSUPPORTED,
    format_method,
)

#: Natives that park the calling thread with *no* bound at all: an accept
#: waits for a connection that may never come, so the frame around it is
#: on the stack precisely while the server is otherwise idle (the paper's
#: Jetty ``acceptSocket`` case). Session natives (``Net.readLine`` /
#: ``Net.read``) wait on an already-connected client and drain when the
#: session ends — those frames leave the stack in a traffic gap, so they
#: are not in-loop-OSR targets (that is what keeps crossftp 1.07→1.08
#: "idle-only" rather than rescued).
INDEFINITE_NATIVES: FrozenSet[str] = frozenset({"Net.accept"})

_INVOKE_OPS = frozenset(
    {"INVOKEVIRTUAL", "INVOKESTATIC", "INVOKESPECIAL", "INVOKENATIVE"}
)
_CONST_VALUES = {
    "CONST_INT": lambda instr: instr.a,
    "CONST_BOOL": lambda instr: 1 if instr.a else 0,
    "CONST_NULL": lambda instr: 0,
}


# ---------------------------------------------------------------------------
# result model


@dataclass
class OSRPlan:
    """A verified in-loop remap for one changed method."""

    key: MethodKey
    #: old-body pc -> new-body pc, covering every parkable old pc
    pc_map: Dict[int, int]
    #: old local slot -> new local slot
    locals_map: Dict[int, int]
    #: new local slot -> constant initial value (new-in-new locals)
    compensation: Dict[int, int]
    #: matched loop heads: (old back-edge target, new back-edge target)
    back_edges: List[Tuple[int, int]]
    #: the parkable old pcs the plan was verified at
    parkable: List[int]

    def as_mapping(self) -> ActiveMethodMapping:
        return ActiveMethodMapping(
            pc_map=dict(self.pc_map),
            locals_map=dict(self.locals_map),
            compensation=dict(self.compensation),
        )

    def describe(self) -> str:
        edges = ", ".join(f"{a}->{b}" for a, b in self.back_edges) or "none"
        extras = ""
        if self.compensation:
            extras = (
                "; compensation "
                + ", ".join(
                    f"slot {s}={v}" for s, v in sorted(self.compensation.items())
                )
            )
        return (
            f"plan verified: {len(self.pc_map)} pc(s) mapped "
            f"({len(self.parkable)} parkable), back-edge(s) {edges}, "
            f"{len(self.locals_map)} local move(s){extras}"
        )

    def to_dict(self) -> dict:
        return {
            "method": list(self.key),
            "pc_map": {str(k): v for k, v in sorted(self.pc_map.items())},
            "locals_map": {
                str(k): v for k, v in sorted(self.locals_map.items())
            },
            "compensation": {
                str(k): v for k, v in sorted(self.compensation.items())
            },
            "back_edges": [list(pair) for pair in self.back_edges],
            "parkable": list(self.parkable),
        }


@dataclass
class OSRRefusal:
    """Why no sound plan exists for one target method."""

    key: MethodKey
    code: str
    reason: str

    def describe(self) -> str:
        return f"refused ({self.code}): {self.reason}"

    def to_dict(self) -> dict:
        return {"method": list(self.key), "code": self.code,
                "reason": self.reason}


@dataclass
class OSRMapReport:
    """All in-loop OSR targets of one update, with a plan or a refusal
    for each."""

    targets: List[MethodKey] = field(default_factory=list)
    plans: Dict[MethodKey, OSRPlan] = field(default_factory=dict)
    refusals: Dict[MethodKey, OSRRefusal] = field(default_factory=dict)

    @property
    def fully_planned(self) -> bool:
        """Every method that can block forever has a verified plan — the
        rescue can replace *all* blocking frames, so the update lands."""
        return bool(self.targets) and not self.refusals

    def mappings(self) -> Dict[MethodKey, ActiveMethodMapping]:
        return {key: plan.as_mapping() for key, plan in self.plans.items()}

    def verdict_for(self, key: MethodKey) -> Optional[str]:
        plan = self.plans.get(key)
        if plan is not None:
            return plan.describe()
        refusal = self.refusals.get(key)
        if refusal is not None:
            return refusal.describe()
        return None

    def summary(self) -> str:
        if not self.targets:
            return "no in-loop OSR targets (no restricted method blocks forever)"
        refused = sorted(r.code for r in self.refusals.values())
        text = (
            f"{len(self.plans)}/{len(self.targets)} blocking method(s) "
            f"have a verified in-loop remap"
        )
        if refused:
            text += f" (refused: {', '.join(refused)})"
        return text

    def render(self) -> str:
        lines = [f"osr-plan: {self.summary()}"]
        for key in self.targets:
            verdict = self.verdict_for(key)
            lines.append(f"  {format_method(key)}: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "targets": [list(k) for k in self.targets],
            "fully_planned": self.fully_planned,
            "plans": [p.to_dict() for _, p in sorted(self.plans.items())],
            "refusals": [
                r.to_dict() for _, r in sorted(self.refusals.items())
            ],
        }


# ---------------------------------------------------------------------------
# parkable pcs and instruction alignment (control flow: bytecode/cfg.py)


def parkable_pcs(code: List[Instr], reachable: Set[int]) -> List[int]:
    """Every pc a stopped world can observe a frame of this method at:
    entry, loop heads, invoke pcs (beneath a callee or blocked in a
    native), and native-completion pcs."""
    parkable: Set[int] = {0}
    parkable.update(loop_heads(code))
    for pc, instr in enumerate(code):
        if instr.op in _INVOKE_OPS:
            parkable.add(pc)
            if instr.op == "INVOKENATIVE" and pc + 1 < len(code):
                parkable.add(pc + 1)
    return sorted(parkable & reachable)


def _tokens(method: MethodInfo) -> List[tuple]:
    """Slot-abstracted, target-stripped instruction tokens: equal tokens
    mean "the same operation on the same canonical variable", regardless
    of physical slot numbers or how far branch targets shifted."""
    canonical = canonical_slots(method.instructions, param_slot_count(method))
    tokens: List[tuple] = []
    for instr in method.instructions:
        if instr.op in ("LOAD", "STORE"):
            tokens.append((instr.op, canonical.get(instr.a, instr.a)))
        elif instr.op in BRANCH_OPS:
            tokens.append((instr.op,))
        else:
            tokens.append((instr.op, instr.a, instr.b))
    return tokens


def _align(old: MethodInfo, new: MethodInfo) -> Dict[int, int]:
    """Candidate old-pc -> new-pc map: longest matching token blocks,
    then a fixpoint filter removing every pair whose branch target does
    not itself map consistently."""
    old_tokens = _tokens(old)
    new_tokens = _tokens(new)
    matcher = SequenceMatcher(None, old_tokens, new_tokens, autojunk=False)
    pc_map: Dict[int, int] = {}
    for block in matcher.get_matching_blocks():
        for offset in range(block.size):
            pc_map[block.a + offset] = block.b + offset
    changed = True
    while changed:
        changed = False
        for old_pc, new_pc in list(pc_map.items()):
            old_instr = old.instructions[old_pc]
            if old_instr.op not in BRANCH_OPS:
                continue
            new_instr = new.instructions[new_pc]
            if pc_map.get(old_instr.a) != new_instr.a:
                del pc_map[old_pc]
                changed = True
    return pc_map


def _loop_signature(method: MethodInfo, head: int) -> tuple:
    """Shape of the loop rooted at ``head``: the token run from the head
    to its farthest back-jumping latch. Identical signatures make loop
    correspondence ambiguous when the counts differ."""
    tokens = _tokens(method)
    latch = max(
        pc
        for pc, instr in enumerate(method.instructions)
        if instr.op == "JUMP" and instr.a == head and head <= pc
    )
    return tuple(tokens[head : latch + 1])


def _constant_initializer(code: List[Instr], slot: int) -> Optional[int]:
    """The provable constant value of ``slot``, or ``None``: every store
    to it must be an immediately-preceding ``CONST_*`` push of one single
    value (a branch target between the push and the store would break the
    pairing, so the pair is also required to be fall-through-only)."""
    targets = {
        instr.a for instr in code if instr.op in BRANCH_OPS
    }
    values: Set[int] = set()
    for pc, instr in enumerate(code):
        if instr.op != "STORE" or instr.a != slot:
            continue
        if pc == 0 or pc in targets:
            return None
        producer = code[pc - 1]
        extract = _CONST_VALUES.get(producer.op)
        if extract is None:
            return None
        values.add(extract(producer))
    if len(values) != 1:
        return None
    return values.pop()


# ---------------------------------------------------------------------------
# the planner


def osr_targets(
    graph: CallGraph,
    closure: RestrictionClosure,
    spec: UpdateSpecification,
) -> List[MethodKey]:
    """The changed methods whose frames can block *forever*: in the
    never-return closure, or parked in an indefinitely-blocking accept.
    Only these need an in-loop remap; every other restricted frame drains
    on its own (return barriers / traffic gaps / stock OSR)."""
    culprits = never_return_closure(graph)
    category1 = spec.category1()

    def blocks_indefinitely(key: MethodKey) -> bool:
        # Two spellings of the same posture: a low-level INVOKENATIVE, or
        # a call into a prelude native *method* (``Net.accept`` has no
        # bytecode, so it never appears in ``graph.natives``).
        if blocking_native_calls(graph, key) & INDEFINITE_NATIVES:
            return True
        return any(
            f"{owner}.{name}" in INDEFINITE_NATIVES
            for owner, name, _ in graph.transitive_callees(key)
        )

    targets: List[MethodKey] = []
    for key in sorted(closure.hard):
        if key not in category1:
            continue  # blacklist entries and inline hosts cannot be remapped
        if key in culprits or blocks_indefinitely(key):
            targets.append(key)
    return targets


def _refuse(key: MethodKey, code: str, reason: str) -> OSRRefusal:
    return OSRRefusal(key, code, reason)


def _stack_shape(state: TypeState) -> Tuple[int, Tuple[bool, ...]]:
    return len(state.stack), state.reference_map()[1]


def _plan_one(
    key: MethodKey,
    old_method: MethodInfo,
    new_method: Optional[MethodInfo],
    old_table: ClassTable,
    new_table: ClassTable,
):
    class_name = key[0]
    name = format_method(key)

    # -- eligibility (DSU-OM05) ------------------------------------------
    if new_method is None:
        return _refuse(
            key, CODE_OSR_UNSUPPORTED,
            f"{name} does not exist in the new program (deleted or "
            f"signature changed); a live frame has nothing to map onto",
        )
    if old_method.is_native or new_method.is_native:
        return _refuse(
            key, CODE_OSR_UNSUPPORTED,
            f"{name} is native; its frames are not bytecode frames",
        )
    if not old_method.instructions or not new_method.instructions:
        return _refuse(
            key, CODE_OSR_UNSUPPORTED, f"{name} has an empty body",
        )
    try:
        old_verified = Verifier(old_table).verify_method(class_name, old_method)
        new_verified = Verifier(new_table).verify_method(class_name, new_method)
    except VerifyError as failure:
        return _refuse(
            key, CODE_OSR_UNSUPPORTED,
            f"{name} fails bytecode verification, so no stack map exists "
            f"to remap against: {failure}",
        )

    old_code = old_method.instructions
    new_code = new_method.instructions
    pc_map = _align(old_method, new_method)

    # -- back-edge correspondence (DSU-OM01) -----------------------------
    old_heads = loop_heads(old_code)
    new_heads = set(loop_heads(new_code))
    matched_edges: List[Tuple[int, int]] = []
    for head in old_heads:
        mapped = pc_map.get(head)
        if mapped is None or mapped not in new_heads:
            return _refuse(
                key, CODE_OSR_BACKEDGE,
                f"back-edge target pc {head} of {name} has no matching "
                f"loop head in the new body (loop restructured or removed)",
            )
        matched_edges.append((head, mapped))
    # Identically-shaped loops duplicated on the new side make the
    # correspondence ambiguous: the order-preserving alignment picks one
    # arbitrarily, which is not a proof. Each group of identical new
    # loops must absorb exactly as many old back-edges as it has members.
    new_groups: Dict[tuple, List[int]] = {}
    for head in sorted(new_heads):
        new_groups.setdefault(_loop_signature(new_method, head), []).append(head)
    mapped_heads = {mapped for _, mapped in matched_edges}
    for signature, members in new_groups.items():
        absorbed = [head for head in members if head in mapped_heads]
        if absorbed and len(absorbed) != len(members):
            return _refuse(
                key, CODE_OSR_BACKEDGE,
                f"ambiguous back-edge mapping for {name}: the new body "
                f"contains {len(members)} identically-shaped loop(s) (heads "
                f"{members}) but only {len(absorbed)} old back-edge(s) map "
                f"into the group — which copy continues the live frame is "
                f"not provable",
            )

    # -- local-slot correspondence from the aligned pairs (DSU-OM03) -----
    locals_map: Dict[int, int] = {
        slot: slot for slot in range(param_slot_count(old_method))
    }
    reverse: Dict[int, int] = {slot: slot for slot in locals_map}
    for old_pc, new_pc in sorted(pc_map.items()):
        old_instr = old_code[old_pc]
        if old_instr.op not in ("LOAD", "STORE"):
            continue
        new_slot = new_code[new_pc].a
        old_slot = old_instr.a
        if locals_map.get(old_slot, new_slot) != new_slot or (
            reverse.get(new_slot, old_slot) != old_slot
        ):
            return _refuse(
                key, CODE_OSR_LOCALS,
                f"no consistent local correspondence for {name}: old slot "
                f"{old_slot} maps to both new slot "
                f"{locals_map.get(old_slot, new_slot)} and {new_slot}",
            )
        locals_map[old_slot] = new_slot
        reverse[new_slot] = old_slot

    # -- per-parkable-pc verification (DSU-OM02/03/04) -------------------
    old_reachable = set(old_verified.states)
    parkable = parkable_pcs(old_code, old_reachable)
    old_live = liveness(old_code)
    new_live = liveness(new_code)
    compensation: Dict[int, int] = {}
    for old_pc in parkable:
        new_pc = pc_map.get(old_pc)
        if new_pc is None:
            return _refuse(
                key, CODE_OSR_STACK,
                f"parkable pc {old_pc} of {name} "
                f"({old_code[old_pc]}) has no corresponding new pc: a "
                f"frame parked there could not be remapped",
            )
        old_state = old_verified.states[old_pc]
        new_state = new_verified.states.get(new_pc)
        if new_state is None or _stack_shape(old_state) != _stack_shape(new_state):
            return _refuse(
                key, CODE_OSR_STACK,
                f"operand-stack shape differs mapping {name} pc {old_pc} "
                f"-> {new_pc}; the carried-over stack would not match the "
                f"new body's verified stack map",
            )
        old_refs = old_state.reference_map()[0]
        new_refs = new_state.reference_map()[0]
        for slot in sorted(old_live[old_pc]):
            mapped_slot = locals_map.get(slot)
            if mapped_slot is None:
                return _refuse(
                    key, CODE_OSR_LOCALS,
                    f"old local slot {slot} of {name} is live at parkable "
                    f"pc {old_pc} but has no corresponding new slot",
                )
            if (
                slot < len(old_refs) and mapped_slot < len(new_refs)
                and old_refs[slot] != new_refs[mapped_slot]
            ):
                return _refuse(
                    key, CODE_OSR_LOCALS,
                    f"local slot {slot} of {name} changes reference-ness "
                    f"across the mapping at pc {old_pc} -> {new_pc}",
                )
        covered = set(locals_map.values())
        for slot in sorted(new_live[new_pc]):
            if slot in covered or slot in compensation:
                continue
            value = _constant_initializer(new_code, slot)
            if value is None:
                return _refuse(
                    key, CODE_OSR_COMPENSATION,
                    f"new local slot {slot} of {name} is live at mapped "
                    f"pc {new_pc} but has no provable constant/default "
                    f"initializer — no compensation assignment can seed it",
                )
            compensation[slot] = value

    return OSRPlan(
        key=key,
        pc_map=pc_map,
        locals_map=locals_map,
        compensation=compensation,
        back_edges=matched_edges,
        parkable=parkable,
    )


def compute_osr_plans(
    old_classfiles: Dict[str, ClassFile],
    prepared: PreparedUpdate,
    graph: Optional[CallGraph] = None,
    closure: Optional[RestrictionClosure] = None,
) -> OSRMapReport:
    """Plan (or refuse) an in-loop remap for every changed method whose
    frames can block forever. Pure static analysis: inputs are class
    files, outputs are data."""
    program: Dict[str, ClassFile] = dict(compile_prelude())
    program.update(old_classfiles)
    spec = prepared.spec
    if graph is None:
        graph = build_call_graph(program)
    if closure is None:
        closure, _ = compute_closure(
            program, spec, graph, prepared.new_classfiles
        )
    report = OSRMapReport(targets=osr_targets(graph, closure, spec))
    if not report.targets:
        return report
    new_world = post_update_world(program, prepared.new_classfiles, spec)
    old_table = ClassTable(program)
    new_table = ClassTable(new_world)
    for key in report.targets:
        class_name, method_name, descriptor = key
        old_classfile = program.get(class_name)
        old_method = (
            old_classfile.get_method(method_name, descriptor)
            if old_classfile else None
        )
        if old_method is None:
            report.refusals[key] = _refuse(
                key, CODE_OSR_UNSUPPORTED,
                f"{format_method(key)} not found in the old program",
            )
            continue
        new_classfile = new_world.get(class_name)
        new_method = (
            new_classfile.get_method(method_name, descriptor)
            if new_classfile else None
        )
        outcome = _plan_one(key, old_method, new_method, old_table, new_table)
        if isinstance(outcome, OSRPlan):
            report.plans[key] = outcome
        else:
            report.refusals[key] = outcome
    return report
