"""Semantic bytecode diffing: prove equivalence, shrink restricted sets.

The UPT's ``diff_programs`` marks a method "changed" on any byte-level body
difference, and marks every method that *references* an updated class as
category-2 restricted. Both over-approximations are sound but inflate the
restricted closure, and the safe-point condition (§4) blocks the update
while any restricted method is live — so spurious restrictions directly
delay safe points. This module shrinks both sets, without giving up
soundness:

1. **Method-body equivalence** (:func:`methods_equivalent`).  Old and new
   bodies are *canonicalized* — constant-pool-independent operands (jmini
   bytecode already carries literals, not pool indexes), local slots
   renumbered by first use over the CFG, jump targets normalized to basic
   block identities, unreachable code dropped, and a small list of
   proven-equivalent instruction idioms rewritten to one normal form. If
   the canonical forms are *identical*, the bodies are behaviorally
   identical and the "change" is downgraded to unchanged. The engine may
   answer "don't know" (and then the method stays restricted); it must
   never equate behaviorally different bodies. Every rewrite below is
   justified against the interpreter's exact semantics
   (:mod:`repro.vm.interpreter`), and differential property tests execute
   canonicalized-equal pairs on randomized inputs.

2. **Category-2 escape analysis** (:func:`compute_indirect_methods`).  A
   method with unchanged bytecode referencing an updated class is only
   *actually* stale if some compiled site baked an offset that the update
   moves. Per layout-sensitive site (see
   :data:`repro.bytecode.instructions.LAYOUT_SENSITIVE_OPS`) the compiled
   form bakes, and the update invalidates:

   * ``NEW`` — the class id. :meth:`~repro.dsu.engine` always allocates a
     fresh id for an updated class, so a ``NEW`` site **never** escapes.
   * ``GETSTATIC``/``PUTSTATIC`` — the JTOC slot. Updated classes get
     fresh static slots unconditionally, so these sites **never** escape.
   * ``GETFIELD``/``PUTFIELD`` — the flattened field offset. Instance
     layout is superclass-first, own fields in declaration order, so a
     field-*addition-only* update appends and existing offsets stay valid.
     The site escapes iff the field keeps its flattened index and
     descriptor (the descriptor also fixes the GC reference map bit).
   * ``INVOKEVIRTUAL`` — the TIB slot. TIB construction copies the
     parent's slot map and appends new virtuals in declaration order, so
     the slot assignment is statically replayable from class files. The
     site escapes iff the replayed slot is unchanged for the receiver
     class *and every old subclass of it* (dispatch indexes the dynamic
     receiver's TIB at the baked slot).

   A method escapes category 2 only when **every** site referencing an
   updated class escapes. Anything unprovable stays restricted.

Both analyses are shared verbatim by the UPT (``diff_programs``) and by
``dsu-lint``'s restriction closure (:mod:`.closure`), so the statically
predicted restricted sets remain a superset of the runtime's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..bytecode.cfg import canonical_slots, leaders, param_slot_count, reach
from ..bytecode.classfile import CLINIT_NAME, CTOR_NAME, ClassFile, MethodInfo
from ..bytecode.instructions import (
    BRANCH_OPS,
    LAYOUT_SENSITIVE_OPS,
    OPCODES,
    Instr,
)
from ..dsu.specification import MethodKey, UpdateSpecification

__all__ = [
    "Verdict",
    "canonicalize_method",
    "methods_equivalent",
    "compute_indirect_methods",
    "post_update_world",
    "site_escapes",
    "category2_sites",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one equivalence query. ``equivalent`` is only ever True
    when the proof went through; ``reason`` explains either the proof or
    why the engine declined ("not proven" / "don't know")."""

    equivalent: bool
    reason: str


# ---------------------------------------------------------------------------
# Canonicalization
#
# Internal representation: basic blocks with explicit terminators.
#   ("return",)                       RETURN
#   ("retval",)                       RETURN_VALUE
#   ("goto", block_id)                unconditional successor
#   ("branch", true_id, false_id)     pops the condition; true = nonzero
# The representation deliberately erases the JUMP_IF_TRUE/JUMP_IF_FALSE
# polarity and the jump/fall-through distinction — both are encoding
# choices, not behavior.

#: Inverse comparison under NOT: comparisons push exactly 1/0 and NOT maps
#: 1 -> 0, 0 -> 1 (interpreter: ``0 if value else 1``), so ``EQ;NOT`` is
#: observationally ``NE`` and so on.
_COMPARE_INVERSE = {
    "EQ": "NE", "NE": "EQ",
    "LT": "GE", "GE": "LT",
    "LE": "GT", "GT": "LE",
}

#: Pushes that cannot trap, allocate, or observe state other than locals;
#: killing a ``push;POP`` pair is invisible. CONST_STR is excluded — it
#: allocates (interning), which can move the GC schedule.
_PURE_PUSH = frozenset({"CONST_INT", "CONST_NULL", "LOAD"})

#: Constant folds restricted to operand magnitudes where the interpreter's
#: arithmetic is exact (DIV uses ``int(left / right)`` — float division —
#: so huge operands must not be folded with exact integer math).
_FOLD_LIMIT = 1 << 40

#: Branch-polarity normal form: a branch conditioned on NE/GE/GT is
#: rewritten to the inverse comparison with swapped arms, so EQ/LT/LE are
#: the only comparisons that ever feed a terminator. Sound for the same
#: reason as the ``NOT`` rules: comparisons push exactly 1/0 and the
#: branch pops exactly that value.
_BRANCH_NEGATED_COMPARES = {"NE": "EQ", "GE": "LT", "GT": "LE"}


class _Block:
    __slots__ = ("instrs", "term")

    def __init__(self, instrs: List[Instr], term: tuple):
        self.instrs = instrs
        self.term = term


def _term_successors(term: tuple) -> Tuple[int, ...]:
    if term[0] == "goto":
        return (term[1],)
    if term[0] == "branch":
        return (term[1], term[2])
    return ()


def _retarget(term: tuple, old: int, new: int) -> tuple:
    if term[0] == "goto":
        return ("goto", new if term[1] == old else term[1])
    if term[0] == "branch":
        return (
            "branch",
            new if term[1] == old else term[1],
            new if term[2] == old else term[2],
        )
    return term


def _build_cfg(code: List[Instr]) -> Optional[Tuple[Dict[int, _Block], int]]:
    """Split ``code`` into basic blocks keyed by leader pc. Returns
    ``None`` when the body cannot be modelled (unknown opcode, a branch
    out of range, or control falling off the end of the code)."""
    if not code:
        return None
    length = len(code)
    for instr in code:
        if instr.op not in OPCODES:
            return None
        if instr.op in BRANCH_OPS:
            target = instr.a
            if not isinstance(target, int) or not 0 <= target < length:
                return None  # pc == length would fall off the end

    ordered = leaders(code)
    blocks: Dict[int, _Block] = {}
    for index, leader in enumerate(ordered):
        end = ordered[index + 1] if index + 1 < len(ordered) else length
        body = list(code[leader:end])
        last = body[-1]
        if last.op == "JUMP":
            term: tuple = ("goto", last.a)
            body.pop()
        elif last.op == "JUMP_IF_FALSE":
            if end >= length:
                return None  # conditional fall-through off the end
            term = ("branch", end, last.a)
            body.pop()
        elif last.op == "JUMP_IF_TRUE":
            if end >= length:
                return None
            term = ("branch", last.a, end)
            body.pop()
        elif last.op == "RETURN":
            term = ("return",)
            body.pop()
        elif last.op == "RETURN_VALUE":
            term = ("retval",)
            body.pop()
        else:
            if end >= length:
                return None  # control falls off the end of the code
            term = ("goto", end)
        blocks[leader] = _Block(body, term)
    return blocks, 0


def _try_fold(op: str, left: int, right: int) -> Optional[Instr]:
    """Fold a constant binary op, replicating the interpreter exactly.
    Returns ``None`` when the fold is unsafe (trap or precision)."""
    if not (isinstance(left, int) and isinstance(right, int)):
        return None
    if abs(left) > _FOLD_LIMIT or abs(right) > _FOLD_LIMIT:
        return None
    if op == "ADD":
        value = left + right
    elif op == "SUB":
        value = left - right
    elif op == "MUL":
        value = left * right
    elif op == "EQ":
        value = 1 if left == right else 0
    elif op == "NE":
        value = 1 if left != right else 0
    elif op == "LT":
        value = 1 if left < right else 0
    elif op == "LE":
        value = 1 if left <= right else 0
    elif op == "GT":
        value = 1 if left > right else 0
    elif op == "GE":
        value = 1 if left >= right else 0
    else:
        return None  # DIV/MOD can trap; never folded
    return Instr("CONST_INT", value)


def _peephole_block(instrs: List[Instr]) -> bool:
    """One pass of the in-block rewrite rules. Returns True on change.
    Every rule is an observational identity of the interpreter:

    * ``CONST_BOOL x``       -> ``CONST_INT 1/0``   (the interpreter pushes 1/0)
    * ``<cmp>;NOT``          -> inverse comparison
    * ``CONST;CONST;<binop>``-> folded constant (never DIV/MOD — traps)
    * ``CONST_INT a;NEG``    -> ``CONST_INT -a``
    * ``CONST_INT a;NOT``    -> ``CONST_INT (0 if a else 1)``
    * ``DUP;POP``            -> (nothing)
    * ``SWAP;SWAP``          -> (nothing)
    * ``<pure push>;POP``    -> (nothing)
    * ``LOAD x;STORE x``     -> (nothing)  (stores the value already there)
    """
    changed = False
    index = 0
    while index < len(instrs):
        instr = instrs[index]
        if instr.op == "CONST_BOOL":
            instrs[index] = Instr("CONST_INT", 1 if instr.a else 0)
            changed = True
            continue
        previous = instrs[index - 1] if index > 0 else None
        if previous is not None:
            if instr.op == "NOT" and previous.op in _COMPARE_INVERSE:
                instrs[index - 1: index + 1] = [Instr(_COMPARE_INVERSE[previous.op])]
                index -= 1
                changed = True
                continue
            if instr.op == "NOT" and previous.op == "CONST_INT":
                instrs[index - 1: index + 1] = [
                    Instr("CONST_INT", 0 if previous.a else 1)
                ]
                index -= 1
                changed = True
                continue
            if instr.op == "NEG" and previous.op == "CONST_INT":
                instrs[index - 1: index + 1] = [Instr("CONST_INT", -previous.a)]
                index -= 1
                changed = True
                continue
            if instr.op == "POP" and previous.op == "DUP":
                del instrs[index - 1: index + 1]
                index = max(index - 2, 0)
                changed = True
                continue
            if instr.op == "POP" and previous.op in _PURE_PUSH:
                del instrs[index - 1: index + 1]
                index = max(index - 2, 0)
                changed = True
                continue
            if instr.op == "SWAP" and previous.op == "SWAP":
                del instrs[index - 1: index + 1]
                index = max(index - 2, 0)
                changed = True
                continue
            if (
                instr.op == "STORE"
                and previous.op == "LOAD"
                and instr.a == previous.a
            ):
                del instrs[index - 1: index + 1]
                index = max(index - 2, 0)
                changed = True
                continue
        if index >= 2 and instr.op in (
            "ADD", "SUB", "MUL", "EQ", "NE", "LT", "LE", "GT", "GE"
        ):
            first, second = instrs[index - 2], instrs[index - 1]
            if first.op == "CONST_INT" and second.op == "CONST_INT":
                folded = _try_fold(instr.op, first.a, second.a)
                if folded is not None:
                    instrs[index - 2: index + 1] = [folded]
                    index -= 2
                    changed = True
                    continue
        index += 1
    return changed


def _fold_terminators(blocks: Dict[int, _Block]) -> bool:
    """Branch-level rewrites: constant conditions, ``NOT`` before a branch,
    and branches whose arms coincide."""
    changed = False
    for block in blocks.values():
        if block.term[0] != "branch":
            continue
        _, on_true, on_false = block.term
        if block.instrs and block.instrs[-1].op == "CONST_INT":
            constant = block.instrs.pop().a
            block.term = ("goto", on_true if constant else on_false)
            changed = True
            continue
        if block.instrs and block.instrs[-1].op == "NOT":
            block.instrs.pop()
            block.term = ("branch", on_false, on_true)
            changed = True
            continue
        if block.instrs and block.instrs[-1].op in _BRANCH_NEGATED_COMPARES:
            block.instrs[-1] = Instr(
                _BRANCH_NEGATED_COMPARES[block.instrs[-1].op]
            )
            block.term = ("branch", on_false, on_true)
            changed = True
            continue
        if on_true == on_false:
            # The condition is still consumed; its computation may have
            # effects, so pop it instead of pretending it never ran.
            block.instrs.append(Instr("POP"))
            block.term = ("goto", on_true)
            changed = True
    return changed


def _block_successors(blocks: Dict[int, _Block]) -> Dict[int, Tuple[int, ...]]:
    return {
        block_id: _term_successors(block.term)
        for block_id, block in blocks.items()
    }


def _drop_unreachable(blocks: Dict[int, _Block], entry: int) -> bool:
    dead = set(blocks).difference(reach([entry], _block_successors(blocks)))
    for block_id in dead:
        del blocks[block_id]
    return bool(dead)


def _collapse_forwarders(blocks: Dict[int, _Block], entry: int) -> Tuple[bool, int]:
    """Redirect edges through empty ``goto``-only blocks (jump-target
    normalization). Self-loops (empty infinite loops) are left alone."""
    changed = False
    forward: Dict[int, int] = {}
    for block_id, block in blocks.items():
        if not block.instrs and block.term[0] == "goto" and block.term[1] != block_id:
            forward[block_id] = block.term[1]

    def resolve(block_id: int) -> int:
        seen = set()
        while block_id in forward and block_id not in seen:
            seen.add(block_id)
            block_id = forward[block_id]
        return block_id

    for block in blocks.values():
        term = block.term
        for successor in _term_successors(term):
            resolved = resolve(successor)
            if resolved != successor:
                term = _retarget(term, successor, resolved)
                changed = True
        block.term = term
    new_entry = resolve(entry)
    if new_entry != entry:
        changed = True
    return changed, new_entry


def _merge_chains(blocks: Dict[int, _Block], entry: int) -> bool:
    """Merge ``goto`` edges onto single-predecessor successors: erases the
    jump/fall-through layout distinction entirely."""
    predecessors: Dict[int, List[int]] = {block_id: [] for block_id in blocks}
    for block_id, block in blocks.items():
        for successor in _term_successors(block.term):
            predecessors[successor].append(block_id)
    changed = False
    for block_id in list(blocks):
        block = blocks.get(block_id)
        if block is None or block.term[0] != "goto":
            continue
        successor = block.term[1]
        if (
            successor == block_id
            or successor == entry
            or len(predecessors[successor]) != 1
        ):
            continue
        target = blocks[successor]
        block.instrs.extend(target.instrs)
        block.term = target.term
        del blocks[successor]
        # Fix the predecessor map incrementally and allow chained merges.
        for next_successor in _term_successors(block.term):
            preds = predecessors[next_successor]
            predecessors[next_successor] = [
                block_id if p == successor else p for p in preds
            ]
        changed = True
    return changed


def canonicalize_method(method: MethodInfo) -> Optional[tuple]:
    """Canonical form of a method body, or ``None`` for "don't know".

    The form is a tuple of basic blocks in deterministic DFS order, each
    ``((instr, ...), terminator)`` with local slots renumbered (parameters
    pinned, temporaries by first use) and jump targets replaced by block
    ordinals. Two methods with equal canonical forms are behaviorally
    identical: every rewrite preserves the interpreter's observable
    semantics (values, heap effects, traps), and the serialization is a
    function of the normalized CFG only.
    """
    if method.is_native:
        return None
    built = _build_cfg(method.instructions)
    if built is None:
        return None
    blocks, entry = built

    changed = True
    while changed:
        changed = False
        for block in blocks.values():
            if _peephole_block(block.instrs):
                changed = True
        if _fold_terminators(blocks):
            changed = True
        if _drop_unreachable(blocks, entry):
            changed = True
        collapsed, entry = _collapse_forwarders(blocks, entry)
        if collapsed:
            changed = True
        _drop_unreachable(blocks, entry)
        if _merge_chains(blocks, entry):
            changed = True

    # Deterministic block numbering: DFS preorder, true arm first.
    order = reach([entry], _block_successors(blocks))
    numbering = {block_id: index for index, block_id in enumerate(order)}

    # Local-slot renumbering: parameters keep their slots (calling
    # convention), temporaries get dense indexes by first appearance.
    rename = canonical_slots(
        (instr for block_id in order for instr in blocks[block_id].instrs),
        param_slot_count(method),
    )

    serialized: List[tuple] = []
    for block_id in order:
        block = blocks[block_id]
        body = []
        for instr in block.instrs:
            if instr.op in ("LOAD", "STORE"):
                body.append((instr.op, rename.get(instr.a, instr.a), instr.b))
            else:
                body.append((instr.op, instr.a, instr.b))
        term = block.term
        if term[0] == "goto":
            term = ("goto", numbering[term[1]])
        elif term[0] == "branch":
            term = ("branch", numbering[term[1]], numbering[term[2]])
        serialized.append((tuple(body), term))
    return tuple(serialized)


def methods_equivalent(old: MethodInfo, new: MethodInfo) -> Verdict:
    """Sound equivalence query: True only when the canonical forms are
    identical. May answer "don't know" (as a non-equivalent verdict with a
    reason); never equates behaviorally different bodies."""
    if old.descriptor != new.descriptor or old.is_static != new.is_static:
        return Verdict(False, "not comparable: signature differs")
    if old.is_native or new.is_native:
        return Verdict(False, "don't know: native method body")
    old_form = canonicalize_method(old)
    if old_form is None:
        return Verdict(False, "don't know: old body defies canonicalization")
    new_form = canonicalize_method(new)
    if new_form is None:
        return Verdict(False, "don't know: new body defies canonicalization")
    if old_form == new_form:
        return Verdict(
            True,
            f"proven equivalent: canonical forms identical "
            f"({len(old_form)} basic block(s))",
        )
    if len(old_form) != len(new_form):
        return Verdict(
            False,
            f"not proven equivalent: canonical CFGs differ "
            f"({len(old_form)} vs {len(new_form)} blocks)",
        )
    for index, (old_block, new_block) in enumerate(zip(old_form, new_form)):
        if old_block != new_block:
            return Verdict(
                False,
                f"not proven equivalent: canonical block {index} differs",
            )
    return Verdict(False, "not proven equivalent")


# ---------------------------------------------------------------------------
# Category-2 escape analysis


def _flattened_fields(
    classfiles: Dict[str, ClassFile], name: str
) -> Tuple[Optional[str], Tuple[Tuple[str, str], ...]]:
    """(root, fields): instance fields in flattened layout order for the
    part of the superclass chain present in ``classfiles``; ``root`` is the
    first ancestor *outside* the set (whose own layout prefix is therefore
    unverifiable here, but identical between old and new programs when the
    root names agree — classes outside the update never change)."""
    chain: List[str] = []
    current: Optional[str] = name
    while current is not None and current in classfiles:
        chain.append(current)
        current = classfiles[current].superclass
    fields: List[Tuple[str, str]] = []
    for class_name in reversed(chain):
        for field_info in classfiles[class_name].instance_fields():
            fields.append((field_info.name, field_info.descriptor))
    return current, tuple(fields)


def _virtual_intro_order(
    classfiles: Dict[str, ClassFile], name: str
) -> Tuple[Optional[str], Tuple[Tuple[str, str], ...]]:
    """(root, keys): virtual-method keys in TIB slot-introduction order,
    replaying :meth:`repro.vm.tib.TIB.build` from class files (parent map
    copied, own virtuals appended in declaration order, overrides reuse
    the inherited slot)."""
    chain: List[str] = []
    current: Optional[str] = name
    while current is not None and current in classfiles:
        chain.append(current)
        current = classfiles[current].superclass
    introduced: List[Tuple[str, str]] = []
    seen: Set[Tuple[str, str]] = set()
    for class_name in reversed(chain):
        for key, method in classfiles[class_name].methods.items():
            if method.is_static or method.name in (CTOR_NAME, CLINIT_NAME):
                continue
            if key not in seen:
                seen.add(key)
                introduced.append(key)
    return current, tuple(introduced)


def _old_subclasses(
    old_classfiles: Dict[str, ClassFile], name: str
) -> List[str]:
    """``name`` plus every old class below it in the hierarchy."""
    result = []
    for candidate in old_classfiles:
        current: Optional[str] = candidate
        while current is not None:
            if current == name:
                result.append(candidate)
                break
            classfile = old_classfiles.get(current)
            current = classfile.superclass if classfile else None
    return result


def _field_offset_stable(
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Dict[str, ClassFile],
    owner: str,
    field_name: str,
) -> Tuple[bool, str]:
    old_root, old_fields = _flattened_fields(old_classfiles, owner)
    new_root, new_fields = _flattened_fields(new_classfiles, owner)
    if old_root != new_root:
        return False, f"superclass chain of {owner} changed"
    old_index = next(
        (i for i, (n, _) in enumerate(old_fields) if n == field_name), None
    )
    new_index = next(
        (i for i, (n, _) in enumerate(new_fields) if n == field_name), None
    )
    if old_index is None or new_index is None:
        return False, f"field {owner}.{field_name} added/removed by the update"
    if old_index != new_index:
        return (
            False,
            f"field {owner}.{field_name} moved "
            f"(flattened slot {old_index} -> {new_index})",
        )
    if old_fields[old_index][1] != new_fields[new_index][1]:
        return False, f"field {owner}.{field_name} changed type"
    return True, f"field {owner}.{field_name} keeps flattened slot {old_index}"


def _tib_slot_stable(
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Dict[str, ClassFile],
    owner: str,
    method_key: Tuple[str, str],
) -> Tuple[bool, str]:
    name, descriptor = method_key
    for subclass in _old_subclasses(old_classfiles, owner):
        if subclass not in new_classfiles:
            return False, f"receiver subclass {subclass} deleted by the update"
        old_root, old_order = _virtual_intro_order(old_classfiles, subclass)
        new_root, new_order = _virtual_intro_order(new_classfiles, subclass)
        if old_root != new_root:
            return False, f"superclass chain of {subclass} changed"
        old_slot = next(
            (i for i, k in enumerate(old_order) if k == method_key), None
        )
        new_slot = next(
            (i for i, k in enumerate(new_order) if k == method_key), None
        )
        if old_slot is None or new_slot is None:
            return (
                False,
                f"virtual {owner}.{name}{descriptor} not dispatchable on "
                f"{subclass} in both versions",
            )
        if old_slot != new_slot:
            return (
                False,
                f"TIB slot of {name}{descriptor} moved on {subclass} "
                f"({old_slot} -> {new_slot})",
            )
    return True, f"TIB slot of {name}{descriptor} stable across the hierarchy"


def site_escapes(
    instr: Instr,
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Dict[str, ClassFile],
) -> Tuple[bool, str]:
    """Whether one layout-sensitive site's baked offsets survive the
    update. The caller guarantees ``instr.a`` is an updated class."""
    owner = instr.a
    if instr.op == "NEW":
        return False, f"NEW {owner} bakes the retiring class id"
    if instr.op in ("GETSTATIC", "PUTSTATIC"):
        return (
            False,
            f"{instr.op} {owner}.{instr.b} bakes a JTOC slot; updated "
            f"classes get fresh static slots",
        )
    if owner not in new_classfiles:
        return False, f"class {owner} absent from the new program"
    if instr.op in ("GETFIELD", "PUTFIELD"):
        return _field_offset_stable(
            old_classfiles, new_classfiles, owner, instr.b
        )
    if instr.op == "INVOKEVIRTUAL":
        return _tib_slot_stable(old_classfiles, new_classfiles, owner, instr.b)
    return False, f"unmodelled layout-sensitive op {instr.op}"


def category2_sites(
    method: MethodInfo,
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Dict[str, ClassFile],
    class_updates: Set[str],
) -> List[Tuple[int, Instr, bool, str]]:
    """Every layout-sensitive site of ``method`` referencing an updated
    class, with its escape verdict: ``(pc, instr, escapes, reason)``."""
    sites = []
    for pc, instr in enumerate(method.instructions):
        if instr.op in LAYOUT_SENSITIVE_OPS and instr.a in class_updates:
            escapes, reason = site_escapes(instr, old_classfiles, new_classfiles)
            sites.append((pc, instr, escapes, reason))
    return sites


def method_escapes_category2(
    method: MethodInfo,
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Dict[str, ClassFile],
    class_updates: Set[str],
) -> Tuple[bool, str]:
    """A method escapes only when every offending site provably escapes."""
    sites = category2_sites(method, old_classfiles, new_classfiles, class_updates)
    for pc, instr, escapes, reason in sites:
        if not escapes:
            return False, f"pc {pc} ({instr.op}): {reason}"
    if not sites:
        return True, "no layout-sensitive site references an updated class"
    reasons = sorted({reason for _, _, _, reason in sites})
    return True, "; ".join(reasons)


def post_update_world(
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Dict[str, ClassFile],
    spec: UpdateSpecification,
) -> Dict[str, ClassFile]:
    """The post-update class table: the old program minus deletions,
    overlaid with the new versions. The escape analysis compares against
    this (rather than the bare new class files) so the superclass-chain
    walks in the stability checks stay symmetric no matter whether the
    caller merged the prelude into ``old_classfiles`` (the lint closure
    does, the UPT does not) — a class untouched by the update contributes
    the identical layout prefix to both sides."""
    world = {
        name: classfile
        for name, classfile in old_classfiles.items()
        if name not in spec.deleted_classes
    }
    world.update(new_classfiles)
    return world


def compute_indirect_methods(
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Optional[Dict[str, ClassFile]],
    spec: UpdateSpecification,
    minimize: bool,
) -> Tuple[Set[MethodKey], Dict[MethodKey, str]]:
    """The category-2 set, shared by ``diff_programs`` and the lint
    closure's recomputation so both always agree.

    Returns ``(indirect, escaped)``: the restricted keys, and the keys
    that referenced updated classes but escaped (with reasons). With
    ``minimize=False`` (or no new class files to check against) every
    referencing method is restricted — the original, coarser rule.
    """
    changed_keys = spec.category1()
    indirect: Set[MethodKey] = set()
    escaped: Dict[MethodKey, str] = {}
    new_world: Optional[Dict[str, ClassFile]] = None
    if minimize and new_classfiles is not None:
        new_world = post_update_world(old_classfiles, new_classfiles, spec)
    for name, classfile in old_classfiles.items():
        if name in spec.deleted_classes:
            continue
        for key, method in classfile.methods.items():
            method_key: MethodKey = (name, key[0], key[1])
            if method_key in changed_keys or method.is_native:
                continue
            if not (method.referenced_classes() & spec.class_updates):
                continue
            if new_world is not None:
                escapes, reason = method_escapes_category2(
                    method, old_classfiles, new_world, spec.class_updates
                )
                if escapes:
                    escaped[method_key] = reason
                    continue
            indirect.add(method_key)
    return indirect, escaped
