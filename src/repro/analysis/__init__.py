"""``dsu-lint``: whole-program update-safety analysis.

The runtime (``repro.dsu``) discovers update blockers *dynamically*: a
restricted method on a stack delays the safe point, a mistyped
transformer aborts the transform phase, and the developer learns why only
after the retry budget burns down. This package runs the same decisions
statically, over a :class:`~repro.dsu.upt.PreparedUpdate` and the old
program's class files, before the VM is ever signalled.

Four passes share one bytecode call graph:

1. **call graph** (:mod:`.callgraph`) — INVOKESTATIC/INVOKESPECIAL via
   the superclass chain, INVOKEVIRTUAL via class-hierarchy analysis;
2. **restriction closure** (:mod:`.closure`) — categories 1–3 plus a
   static replay of the opt tier's inliner, yielding a provable
   over-approximation of the runtime restricted sets, and a staleness
   cross-check of the spec's category-2 set;
3. **safe-point reachability** (:mod:`.reachability`) — restricted
   methods that can never leave the stack, with ranked blacklist
   suggestions;
4. **transformer type checking** (:mod:`.transformers`) — abstract
   interpretation of ``jvolveObject``/``jvolveClass`` against the
   transform-time class table the UPT compiled them against.

A fifth pass, **con-freeness classification** (:mod:`.confree`), reuses
pass 1's graph to decide whether the update is ``bypass-eligible`` for
the engine's zero-pause immediate-bypass mode or ``requires-safepoint``.

A sixth pass, **back-edge OSR mapping** (:mod:`.osrmap`), takes the
methods pass 3 proves can block forever and tries to *rescue* them: it
statically builds a verified pc/local remap (an :class:`OSRPlan`) the
engine can apply to the live loop frame after the retry budget burns
down, or refuses with a ``DSU-OM..`` code explaining why no sound remap
exists. Pass 3's diagnostics carry the per-method verdict.

:func:`analyze_update` is the single entry point, and one call serves
every consumer of an update attempt: the engine's pre-flight reads the
lint counts, the bypass verdict and the rescue plans from the same
:class:`AnalysisReport`, and ``repro update``, ``dsu-lint`` and
``dsu-lint --explain`` read it too.
"""

from __future__ import annotations

from typing import Dict, List

from ..bytecode.classfile import ClassFile
from ..compiler.compile import compile_prelude
from ..dsu.upt import PreparedUpdate
from .callgraph import CallGraph, UnresolvedCall, build_call_graph
from .closure import RestrictionClosure, compute_closure, recompute_category2
from .confree import (
    CONFREE_RULES,
    ConFreeVerdict,
    VERDICT_BYPASS,
    VERDICT_SAFEPOINT,
    VerdictStep,
    classify_update,
)
from .osrmap import (
    INDEFINITE_NATIVES,
    OSRMapReport,
    OSRPlan,
    OSRRefusal,
    compute_osr_plans,
    osr_targets,
)
from .reachability import (
    BLOCKING_NATIVES,
    check_reachability,
    method_may_never_return,
    never_return_closure,
)
from .report import (
    AnalysisReport,
    CODE_BAD_MAPPING,
    CODE_BOGUS_BLACKLIST,
    CODE_EMPTY_UPDATE,
    CODE_OSR_PLANNED,
    CODE_UNRESOLVED_CALL,
    Diagnostic,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    format_method,
)
from .transformers import build_transform_table, check_transformers

__all__ = [
    "AnalysisReport",
    "BLOCKING_NATIVES",
    "CONFREE_RULES",
    "CallGraph",
    "ConFreeVerdict",
    "Diagnostic",
    "INDEFINITE_NATIVES",
    "OSRMapReport",
    "OSRPlan",
    "OSRRefusal",
    "RestrictionClosure",
    "UnresolvedCall",
    "VERDICT_BYPASS",
    "VERDICT_SAFEPOINT",
    "VerdictStep",
    "analyze_update",
    "build_call_graph",
    "build_transform_table",
    "check_reachability",
    "check_transformers",
    "classify_update",
    "compute_closure",
    "compute_osr_plans",
    "format_method",
    "method_may_never_return",
    "never_return_closure",
    "osr_targets",
    "recompute_category2",
]


def _check_spec(
    old_classfiles: Dict[str, ClassFile], prepared: PreparedUpdate
) -> List[Diagnostic]:
    """The specification-plausibility checks: bogus blacklist entries,
    unusable active-method mappings, and the empty update."""
    diagnostics: List[Diagnostic] = []
    spec = prepared.spec

    for class_name, method_name, descriptor in sorted(spec.blacklist):
        classfile = old_classfiles.get(class_name)
        if classfile is None or classfile.get_method(
            method_name, descriptor
        ) is None:
            diagnostics.append(
                Diagnostic(
                    CODE_BOGUS_BLACKLIST,
                    SEVERITY_WARNING,
                    f"blacklisted method "
                    f"{class_name}.{method_name}{descriptor} "
                    f"does not exist in the old program",
                )
            )

    for key, mapping in prepared.active_method_mappings.items():
        class_name, method_name, descriptor = key
        if key not in spec.category1():
            diagnostics.append(
                Diagnostic(
                    CODE_BAD_MAPPING,
                    SEVERITY_WARNING,
                    f"active-method mapping for {class_name}.{method_name} "
                    f"is useless: the method is not a changed (category-1) "
                    f"method",
                )
            )
            continue
        new_cf = prepared.new_classfiles.get(class_name)
        new_method = (
            new_cf.get_method(method_name, descriptor) if new_cf else None
        )
        if new_method is None:
            diagnostics.append(
                Diagnostic(
                    CODE_BAD_MAPPING,
                    SEVERITY_WARNING,
                    f"active-method mapping target {class_name}.{method_name}"
                    f"{descriptor} does not exist in the new program",
                )
            )
            continue
        limit = len(new_method.instructions)
        bad = [pc for pc in mapping.pc_map.values() if not 0 <= pc < limit]
        if bad:
            diagnostics.append(
                Diagnostic(
                    CODE_BAD_MAPPING,
                    SEVERITY_WARNING,
                    f"active-method mapping for {class_name}.{method_name} "
                    f"has out-of-range target pcs {bad} (new body has "
                    f"{limit} instructions)",
                )
            )

    totals = spec.totals()
    if not any((
        spec.class_updates, spec.added_classes, spec.deleted_classes,
        spec.method_body_updates, totals["methods_added"],
    )):
        diagnostics.append(
            Diagnostic(
                CODE_EMPTY_UPDATE,
                SEVERITY_WARNING,
                "the update changes nothing",
            )
        )
    return diagnostics


_UNRESOLVED_REPORT_CAP = 10


def analyze_update(
    old_classfiles: Dict[str, ClassFile],
    prepared: PreparedUpdate,
    inloop_osr: bool = True,
) -> AnalysisReport:
    """Run the analyzer passes over one prepared update.

    ``old_classfiles`` is the running (old) program; the prelude is merged
    in automatically so calls into ``Sys``/``Net``/``Str`` resolve the way
    the JIT resolves them. ``inloop_osr=False`` skips the sixth (osrmap)
    pass — the paper-fidelity configuration, in which the two
    blocked-forever updates abort the way §4 reports.
    """
    report = AnalysisReport(prepared.old_version, prepared.new_version)
    spec = prepared.spec

    program: Dict[str, ClassFile] = dict(compile_prelude())
    program.update(old_classfiles)

    # Pass 1: call graph. Unresolved sites are informational — the graph
    # keeps them so reachability treats the callers conservatively, and
    # the dedicated tests assert on ``graph.unresolved`` directly.
    graph = build_call_graph(program)
    for unresolved in graph.unresolved[:_UNRESOLVED_REPORT_CAP]:
        report.add(
            Diagnostic(
                CODE_UNRESOLVED_CALL,
                SEVERITY_INFO,
                f"call graph: {unresolved.describe()} does not resolve "
                f"against the old program; edges from "
                f"{format_method(unresolved.caller)} are incomplete",
                method=unresolved.caller,
            )
        )
    if len(graph.unresolved) > _UNRESOLVED_REPORT_CAP:
        report.add(
            Diagnostic(
                CODE_UNRESOLVED_CALL,
                SEVERITY_INFO,
                f"call graph: {len(graph.unresolved)} unresolved call "
                f"site(s) in total (first {_UNRESOLVED_REPORT_CAP} shown)",
            )
        )

    # Con-freeness / backward-compatibility verdict: is this update
    # eligible for the zero-pause immediate-bypass mode? Shares pass 1's
    # call graph so the CHA edges match every other pass.
    report.bc_verdict = classify_update(old_classfiles, prepared, graph)

    # Pass 2: restriction closure + category-2 staleness.
    closure, closure_diagnostics = compute_closure(
        program, spec, graph, prepared.new_classfiles
    )
    report.extend(closure_diagnostics)
    report.closure = closure
    report.predicted_restricted = closure.predicted

    # Pass 6 runs *before* pass 3 is reported: reachability's verdicts
    # ("will OSR" / "will abort") depend on which blockers got a plan.
    osr_report = None
    if inloop_osr:
        osr_report = compute_osr_plans(
            old_classfiles, prepared, graph=graph, closure=closure
        )
        report.osr_plans = osr_report
        for key in osr_report.targets:
            verdict = osr_report.verdict_for(key)
            refusal = osr_report.refusals.get(key)
            report.add(
                Diagnostic(
                    refusal.code if refusal else CODE_OSR_PLANNED,
                    SEVERITY_INFO,
                    f"osr-plan: {format_method(key)}: {verdict}",
                    method=key,
                )
            )

    # Pass 3: safe-point reachability, verdict-aware when pass 6 ran.
    reach_diagnostics, suggestions = check_reachability(
        graph, closure, spec, prepared.active_method_mappings,
        osr_plans=osr_report,
    )
    report.extend(reach_diagnostics)
    report.blacklist_suggestions = suggestions

    # Pass 4: transformer presence, coverage, and type checking.
    report.extend(check_transformers(old_classfiles, prepared))

    # Specification plausibility.
    report.extend(_check_spec(old_classfiles, prepared))
    return report
