"""``dsu-lint --explain``: why is this method in the restricted closure?

The restricted sets are computed in four places (UPT categories 1–3, the
semantic-diff minimizer's downgrades and escapes, and the lint closure's
inlining hosts), which makes "why is my update stuck behind method X?" a
genuinely hard question to answer by reading spec files. This pass
answers it directly: given ``Class.method`` (optionally with a
descriptor), it reports the category the method landed in, the
minimizer's proof or non-proof, the per-site escape verdicts for
category-2 candidates, and the inline chain for opt-tier hosts — or
states that the method is unrestricted. It also appends the
con-freeness steps anchored to the method, so "why does this update
need a safe point instead of the immediate bypass?" is answered in the
same breath — and, for a method the reachability pass proves can block
forever, the in-loop OSR verdict (the verified plan, or the ``DSU-OM..``
refusal spelling out why no sound remap exists).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..bytecode.classfile import ClassFile
from ..compiler.compile import compile_prelude
from ..dsu.specification import MethodKey
from ..dsu.upt import PreparedUpdate
from . import analyze_update
from .report import AnalysisReport, format_method
from .semdiff import category2_sites, post_update_world


def match_method_keys(
    classfiles: Dict[str, ClassFile], query: str
) -> List[MethodKey]:
    """Resolve ``Class.method`` or ``Class.method(descriptor)`` against a
    program; returns every matching key (overloads match together unless
    the descriptor is given)."""
    descriptor: Optional[str] = None
    name_part = query
    if "(" in query:
        name_part, _, rest = query.partition("(")
        descriptor = "(" + rest
    class_name, _, method_name = name_part.rpartition(".")
    if not class_name:
        return []
    classfile = classfiles.get(class_name)
    if classfile is None:
        return []
    return sorted(
        (class_name, method.name, method.descriptor)
        for method in classfile.methods.values()
        if method.name == method_name
        and (descriptor is None or method.descriptor == descriptor)
    )


def _explain_one(
    key: MethodKey,
    program: Dict[str, ClassFile],
    prepared: PreparedUpdate,
    report: AnalysisReport,
) -> List[str]:
    spec = prepared.spec
    reason = spec.minimization_reasons.get(key)
    lines = [f"{format_method(key)}:"]

    def add(text: str) -> None:
        lines.append(f"  {text}")

    restricted = False
    if key in spec.deleted_methods:
        restricted = True
        add("category 1 (restricted): deleted by the update — it must not "
            "be on any stack when the new version installs")
    elif key in spec.method_body_updates:
        restricted = True
        add("category 1 (restricted): method body changed")
        if reason:
            add(f"semantic diff: {reason}")
    elif key in spec.changed_methods_in_updated_classes:
        restricted = True
        add("category 1 (restricted): body changed inside a "
            "signature-updated class")
        if reason:
            add(f"semantic diff: {reason}")
    if key in spec.blacklist:
        restricted = True
        add("category 3 (restricted): explicitly blacklisted in the "
            "update specification")

    if key in spec.equivalent_methods:
        add("NOT restricted: the body differs byte-wise but the semantic "
            "diff proved it behaviorally identical, so the change was "
            "downgraded to unchanged")
        if reason:
            add(f"proof: {reason}")

    in_category2 = key in spec.category2()
    escaped = key in spec.escaped_indirect
    if in_category2 or escaped:
        classfile = program.get(key[0])
        method = classfile.get_method(key[1], key[2]) if classfile else None
        if in_category2:
            restricted = True
            add("category 2 (restricted): bytecode unchanged, but compiled "
                "code bakes offsets of updated classes")
        else:
            add("NOT restricted: references updated classes, but every "
                "baked offset provably survives the update "
                "(category-2 escape)")
            if reason:
                add(f"proof: {reason}")
        if method is not None and spec.minimized:
            world = post_update_world(
                program, prepared.new_classfiles, spec
            )
            for pc, instr, site_escapes, site_reason in category2_sites(
                method, program, world, spec.class_updates
            ):
                verdict = "survives" if site_escapes else "STALE"
                add(f"  pc {pc}: {instr} — {verdict}: {site_reason}")

    hits = report.closure.inline_hosts.get(key)
    if hits:
        restricted = True
        add("restricted by the opt tier: its opt-compiled code would "
            "inline restricted method(s):")
        for hit in sorted(hits):
            add(f"  inlines {format_method(hit)}")

    if not restricted and key not in spec.equivalent_methods and not escaped:
        add("NOT restricted: unchanged, bakes no offsets of updated "
            "classes, and inlines nothing restricted — the safe-point "
            "scan ignores it")

    confree = report.bc_verdict
    bc_steps = confree.steps_for(format_method(key))
    add(f"con-freeness: the update as a whole is {confree.verdict}")
    if bc_steps:
        for step in bc_steps:
            add(f"  {step}")
    else:
        add("  no con-freeness step anchors to this method "
            "(only update-wide rules apply to it)")

    osr_plans = report.osr_plans
    if osr_plans is not None and key in osr_plans.targets:
        add("in-loop OSR: this method's frames can block forever, so the "
            "osrmap pass tried to prove a live-frame remap:")
        add(f"  {osr_plans.verdict_for(key)}")
    return lines


def explain_restriction(
    old_classfiles: Dict[str, ClassFile],
    prepared: PreparedUpdate,
    query: str,
    inloop_osr: bool = True,
) -> str:
    """Full explanation text for every old-program method matching
    ``query`` (``Class.method`` or ``Class.method(descriptor)``).
    ``inloop_osr`` is :func:`analyze_update`'s: without it the osrmap pass
    is skipped and no in-loop OSR verdict is given."""
    program: Dict[str, ClassFile] = dict(compile_prelude())
    program.update(old_classfiles)
    keys = match_method_keys(program, query)
    if not keys:
        return (
            f"no method matching {query!r} in the old program "
            f"(expected Class.method or Class.method(descriptor))"
        )
    report = analyze_update(old_classfiles, prepared, inloop_osr=inloop_osr)
    lines: List[str] = []
    for key in keys:
        lines.extend(_explain_one(key, program, prepared, report))
    return "\n".join(lines)
