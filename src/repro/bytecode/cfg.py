"""The control-flow model of a method body: the one place that answers
"where can control go from this pc" for semdiff's basic blocks,
safe-point reachability and the OSR mapper. The paper's yield points sit
at the back edges of this graph (§3.2, §4).

Every function works on a method's ``instructions`` and caches nothing.
Branch targets are assumed to be ints; the verifier rejects other bodies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..lang.types import parse_method_descriptor
from .classfile import MethodInfo
from .instructions import BRANCH_OPS, Instr

RETURN_OPS = frozenset({"RETURN", "RETURN_VALUE"})


def successors(code: Sequence[Instr]) -> List[Tuple[int, ...]]:
    """Per-pc in-body successors, the one successor rule: a return has
    none, ``JUMP`` goes to its target, a conditional branch goes to its
    target and then falls through, every other op falls through. Edges
    that leave the body are dropped."""
    length = len(code)
    table: List[Tuple[int, ...]] = []
    for pc, instr in enumerate(code):
        op = instr.op
        if op in RETURN_OPS:
            table.append(())
            continue
        targets: Tuple[int, ...] = ()
        if op in BRANCH_OPS and 0 <= instr.a < length:
            targets = (instr.a,)
        if op != "JUMP" and pc + 1 < length:
            targets += (pc + 1,)
        table.append(targets)
    return table


def predecessors(succ: Sequence[Sequence[int]]) -> List[List[int]]:
    """Per-pc predecessors of a :func:`successors` table."""
    preds: List[List[int]] = [[] for _ in succ]
    for pc, targets in enumerate(succ):
        for target in targets:
            preds[target].append(pc)
    return preds


def reach(roots: Iterable[int], succ) -> List[int]:
    """Every node reachable from ``roots`` in DFS preorder, taking each
    node's successors in order. ``succ`` maps a node to its successors: a
    :func:`successors` table, or any mapping over other node ids."""
    order: List[int] = []
    seen: Set[int] = set()
    stack = list(roots)[::-1]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        stack.extend(succ[node][::-1])
    return order


def leaders(code: Sequence[Instr]) -> List[int]:
    """Sorted basic-block leaders: pc 0, every in-body branch target, and
    every pc that follows a branch or a return."""
    heads: Set[int] = {0}
    for pc, instr in enumerate(code):
        if instr.op in BRANCH_OPS:
            heads.add(instr.a)
        if instr.op in BRANCH_OPS or instr.op in RETURN_OPS:
            heads.add(pc + 1)
    return sorted(pc for pc in heads if 0 <= pc < len(code))


def loop_heads(code: Sequence[Instr]) -> List[int]:
    """Targets of backward unconditional jumps — the interpreter's
    in-loop yield points, where a spinning frame parks."""
    return sorted({
        instr.a for pc, instr in enumerate(code)
        if instr.op == "JUMP" and isinstance(instr.a, int) and instr.a <= pc
    })


def liveness(code: Sequence[Instr]) -> List[Set[int]]:
    """Backward may-liveness of local slots: ``live_in[pc]`` holds every
    slot whose current value may still be read (``LOAD`` uses a slot,
    ``STORE`` kills it)."""
    succ = successors(code)
    live_in: List[Set[int]] = [set() for _ in code]
    changed = True
    while changed:
        changed = False
        for pc in range(len(code) - 1, -1, -1):
            live: Set[int] = set()
            for target in succ[pc]:
                live |= live_in[target]
            instr = code[pc]
            if instr.op == "STORE":
                live.discard(instr.a)
            elif instr.op == "LOAD":
                live.add(instr.a)
            if live != live_in[pc]:
                live_in[pc] = live
                changed = True
    return live_in


def param_slot_count(method: MethodInfo) -> int:
    """Local slots the calling convention fills: ``this``, then the
    declared parameters."""
    params, _ = parse_method_descriptor(method.descriptor)
    return len(params) + (0 if method.is_static else 1)


def canonical_slots(instructions: Iterable[Instr],
                    pinned: int) -> Dict[int, int]:
    """Renumbering of the temporaries ``LOAD``/``STORE`` name, densely from
    ``pinned`` in first-use order. Only int slots at or above ``pinned``
    are renumbered; any other slot is absent and keeps its number, which
    keeps the rule sound on bodies the verifier never saw."""
    rename: Dict[int, int] = {}
    for instr in instructions:
        if instr.op == "LOAD" or instr.op == "STORE":
            slot = instr.a
            if isinstance(slot, int) and slot >= pinned and slot not in rename:
                rename[slot] = pinned + len(rename)
    return rename
