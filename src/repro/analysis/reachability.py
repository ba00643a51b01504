"""Safe-point reachability.

A DSU safe point needs every restricted method off every stack. The
runtime can wait (return barriers, retry rounds) — but no amount of
waiting helps when a restricted method *cannot* leave the stack:

* its own control-flow graph has a reachable region from which no
  ``RETURN`` is reachable (the ``while (true)`` server loop), or
* some path calls a method with that property, so the caller's frame is
  pinned beneath a non-returning callee.

This pass finds those methods in the predicted restricted closure and
emits the "update never reaches a safe point" diagnostic with a concrete
blacklist suggestion, ranked by call-graph depth (a rank-0 method is a
thread entry point — the longest-lived frame on its stack). Restricted
methods that park inside blocking natives (``Net.accept`` and friends)
return eventually, but only when traffic obliges; they get a warning.
Category-2 methods that never return are flagged separately: OSR rescues
them only while they are still base-compiled, so an opt promotion would
turn them into hard blockers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from ..bytecode.classfile import MethodInfo
from ..bytecode.cfg import RETURN_OPS, predecessors, reach, successors
from ..dsu.specification import MethodKey, UpdateSpecification
from .callgraph import CallGraph
from .closure import RestrictionClosure
from .report import (
    CODE_BLOCKING_NATIVE,
    CODE_CAT2_NEVER_RETURNS,
    CODE_UNREACHABLE_SAFEPOINT,
    Diagnostic,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    format_method,
)

#: natives that park the calling thread until the outside world acts —
#: a frame inside one stays on the stack for as long as traffic dictates
BLOCKING_NATIVES: FrozenSet[str] = frozenset(
    {"Net.accept", "Net.readLine", "Net.read"}
)


def method_may_never_return(method: MethodInfo) -> bool:
    """True when the method's CFG has a reachable pc from which no
    ``RETURN``/``RETURN_VALUE`` is reachable — an inescapable loop.

    Native methods return at the runtime's discretion and trivially have
    no CFG; they are never flagged here.
    """
    code = method.instructions
    if method.is_native or not code:
        return False
    succ = successors(code)
    returns = [pc for pc, instr in enumerate(code) if instr.op in RETURN_OPS]
    returning = set(reach(returns, predecessors(succ)))
    return not returning.issuperset(reach([0], succ))


def never_return_closure(graph: CallGraph) -> Dict[MethodKey, MethodKey]:
    """Map every method that may never return to the *culprit*: itself
    when its own CFG loops forever, else the (transitive) callee that
    does. A caller is pinned for as long as any callee runs.

    Built once per graph and kept on it: the osrmap pass and the
    reachability pass read the same map."""
    if graph.never_return is not None:
        return graph.never_return
    culprit: Dict[MethodKey, MethodKey] = {}
    worklist: List[MethodKey] = []
    for key in graph.nodes():
        info = graph.method_info(key)
        if info is not None and method_may_never_return(info):
            culprit[key] = key
            worklist.append(key)
    while worklist:
        current = worklist.pop()
        for caller in graph.callers.get(current, ()):
            if caller not in culprit:
                culprit[caller] = culprit[current]
                worklist.append(caller)
    graph.never_return = culprit
    return culprit


def blocking_native_calls(graph: CallGraph, key: MethodKey) -> Set[str]:
    """Blocking natives ``key`` may sit inside, directly or transitively.

    Both spellings count: a low-level ``INVOKENATIVE`` recorded in
    ``graph.natives``, and a call into a prelude native *method*
    (``Net.accept`` has no bytecode, so it only shows up as a callee)."""
    names = set(graph.natives.get(key, ()) ) & BLOCKING_NATIVES
    for callee in graph.transitive_callees(key):
        names |= graph.natives.get(callee, set()) & BLOCKING_NATIVES
        dotted = f"{callee[0]}.{callee[1]}"
        if dotted in BLOCKING_NATIVES:
            names.add(dotted)
    return names


def check_reachability(
    graph: CallGraph,
    closure: RestrictionClosure,
    spec: UpdateSpecification,
    active_mappings=(),
    osr_plans=None,
) -> tuple:
    """Returns ``(diagnostics, blacklist_suggestions)``.

    ``osr_plans`` is the :class:`~.osrmap.OSRMapReport` of the sixth lint
    pass, when it ran: a blocker with a verified in-loop remap is
    downgraded to a warning ("will OSR"), a refused one keeps its error
    with the refusal code attached ("will abort")."""
    diagnostics: List[Diagnostic] = []
    suggestions: List[MethodKey] = []
    culprits = never_return_closure(graph)
    depths = graph.depths()

    def depth_of(key: MethodKey) -> int:
        return depths.get(key, 1 << 30)

    def by_depth(key: MethodKey):
        # ties on the method key, so set iteration order never reaches
        # the diagnostics (or `dsu-lint --json`)
        return depth_of(key), key

    def plan_for(key: MethodKey):
        if osr_plans is None:
            return None
        return osr_plans.plans.get(key)

    def refusal_for(key: MethodKey):
        if osr_plans is None:
            return None
        return osr_plans.refusals.get(key)

    # Changed methods with an extended-OSR mapping can be replaced while
    # running (§3.5); they never pin the safe point.
    mapped = set(active_mappings or ())

    # Hard restrictions (changed bytecode + blacklist): a never-returning
    # one dooms the update — unless the osrmap pass proved an in-loop
    # remap, in which case the engine rescues the live frame in place.
    hard_stuck = sorted(
        (k for k in closure.hard if k in culprits and k not in mapped),
        key=by_depth,
    )
    for key in hard_stuck:
        culprit = culprits[key]
        if culprit == key:
            why = "its own control flow has a loop that never reaches a return"
        else:
            why = (
                f"every frame of it is pinned beneath "
                f"{format_method(culprit)}, which never returns"
            )
        already_blacklisted = key in spec.category3()
        plan = plan_for(key)
        refusal = refusal_for(key)
        if plan is not None:
            diagnostics.append(
                Diagnostic(
                    CODE_UNREACHABLE_SAFEPOINT,
                    SEVERITY_WARNING,
                    f"restricted method {format_method(key)} can never "
                    f"leave the stack: {why}; will OSR ({plan.describe()})"
                    f" — after the retry budget burns down the engine "
                    f"remaps the live frame onto the new body in place",
                    method=key,
                )
            )
            continue
        verdict = ""
        if refusal is not None:
            verdict = (
                f"; will abort (no plan: {refusal.code} — {refusal.reason})"
            )
        diagnostics.append(
            Diagnostic(
                CODE_UNREACHABLE_SAFEPOINT,
                SEVERITY_ERROR,
                f"restricted method {format_method(key)} can never leave "
                f"the stack: {why}; while its thread runs, no DSU safe "
                f"point is reachable and the update will burn its whole "
                f"retry budget before aborting" + verdict,
                method=key,
                suggestion=(
                    "" if already_blacklisted else
                    f"blacklist {format_method(key)} (call-graph depth "
                    f"{depth_of(key)}) to get an immediate, attributable "
                    f"abort — or restructure the loop to return"
                ),
            )
        )
        if not already_blacklisted:
            suggestions.append(key)

    # Hard restrictions parked in blocking natives: they do return, but
    # only when the outside world sends traffic — under load they are
    # "nearly always on stack" (the paper's Jetty acceptSocket case). An
    # indefinitely-blocking one (accept) with a verified plan is rescued
    # the same way as a spinning loop.
    for key in sorted(closure.hard - set(hard_stuck), key=by_depth):
        natives = blocking_native_calls(graph, key)
        if natives and key not in mapped:
            plan = plan_for(key)
            refusal = refusal_for(key)
            if plan is not None:
                tail = f"; will OSR ({plan.describe()})"
            elif refusal is not None:
                tail = (
                    f"; will abort if the gap never comes (no plan: "
                    f"{refusal.code} — {refusal.reason})"
                )
            else:
                tail = ""
            diagnostics.append(
                Diagnostic(
                    CODE_BLOCKING_NATIVE,
                    SEVERITY_WARNING,
                    f"restricted method {format_method(key)} blocks in "
                    f"{'/'.join(sorted(natives))}; it is on the stack "
                    f"whenever the server is waiting for I/O, so the "
                    f"update only lands in a traffic gap" + tail,
                    method=key,
                )
            )

    # Category 2: OSR rescues base-compiled frames, so a never-returning
    # category-2 method is survivable — unless the adaptive system has
    # promoted it to the opt tier by the time the update arrives.
    for key in sorted(
        (k for k in closure.recompile if k in culprits), key=by_depth
    ):
        diagnostics.append(
            Diagnostic(
                CODE_CAT2_NEVER_RETURNS,
                SEVERITY_WARNING,
                f"category-2 method {format_method(key)} never returns; "
                f"OSR can rescue it only while it is base-compiled — if "
                f"the adaptive system opt-compiles it first, it becomes a "
                f"permanent blocker",
                method=key,
            )
        )
    return diagnostics, suggestions
