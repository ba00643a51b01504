"""Diagnostics and the analysis report.

Every ``dsu-lint`` pass emits :class:`Diagnostic` records into one
:class:`AnalysisReport`. A diagnostic carries a stable machine-readable
code (``DSU-SP01`` etc.), a severity, the method or class it is anchored
to, and — where the analyzer can propose one — a concrete remediation
(e.g. a blacklist entry). The report renders either human-readable text
or JSON (for the CI gate), and answers the one question the engine's
strict pre-flight hook asks: *can this update possibly land?*
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..dsu.specification import MethodKey

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_INFO)

# ---------------------------------------------------------------------------
# Diagnostic codes, one per failure class. Codes are part of the tool's
# contract (tests and the CI gate match on them); messages are for humans.

#: call-graph construction: a call site whose target cannot be resolved
CODE_UNRESOLVED_CALL = "DSU-CG01"
#: the spec's category-2 set is missing methods the analyzer derives
CODE_STALE_CATEGORY2 = "DSU-RC01"
#: the spec's category-2 set lists methods the analyzer cannot derive
CODE_EXTRA_CATEGORY2 = "DSU-RC02"
#: a changed/blacklisted method can never leave the stack
CODE_UNREACHABLE_SAFEPOINT = "DSU-SP01"
#: a restricted method parks inside a blocking native
CODE_BLOCKING_NATIVE = "DSU-SP02"
#: a category-2 method never returns (safe only while base-compiled)
CODE_CAT2_NEVER_RETURNS = "DSU-SP03"
#: transformer reads a field that does not exist / has the wrong type
CODE_TRANSFORMER_READ = "DSU-TF01"
#: transformer write is unknown / descriptor-incompatible / final
CODE_TRANSFORMER_WRITE = "DSU-TF02"
#: transformer body fails bytecode verification for another reason
CODE_TRANSFORMER_VERIFY = "DSU-TF03"
#: in-loop OSR mapping analysis (the sixth pass, analysis/osrmap.py):
#: why a live loop frame of a changed method can or cannot be remapped
#: onto the new body. OM00 carries a verified plan (informational; it
#: also downgrades the matching DSU-SP01 error to a warning); OM01–OM05
#: are refusals.
CODE_OSR_PLANNED = "DSU-OM00"
#: back-edge structure mismatch or ambiguous loop correspondence
CODE_OSR_BACKEDGE = "DSU-OM01"
#: a parkable old pc has no mapped new pc with the same operand-stack shape
CODE_OSR_STACK = "DSU-OM02"
#: no provable local-slot correspondence for a live local
CODE_OSR_LOCALS = "DSU-OM03"
#: a new-in-new local is live at the remap point without a provable
#: constant/default initializer (no compensation assignment derivable)
CODE_OSR_COMPENSATION = "DSU-OM04"
#: structurally ineligible: deleted/native/descriptor-changed/unverifiable
CODE_OSR_UNSUPPORTED = "DSU-OM05"
#: specification plausibility: missing transformers, unassigned fields,
#: bogus blacklist entries, unusable mappings, the empty update
CODE_MISSING_TRANSFORMER = "DSU-PF01"
CODE_FIELD_UNASSIGNED = "DSU-PF02"
CODE_BOGUS_BLACKLIST = "DSU-PF03"
CODE_BAD_MAPPING = "DSU-PF04"
CODE_EMPTY_UPDATE = "DSU-PF05"


def format_method(key: MethodKey) -> str:
    class_name, name, descriptor = key
    return f"{class_name}.{name}{descriptor}"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the update-safety analyzer."""

    code: str
    severity: str
    message: str
    #: the method the finding is anchored to, when there is one
    method: Optional[MethodKey] = None
    #: a concrete remediation, e.g. "blacklist ThreadedServer.run()V"
    suggestion: str = ""

    def __str__(self) -> str:
        anchor = f" [{format_method(self.method)}]" if self.method else ""
        text = f"{self.code} {self.severity}: {self.message}{anchor}"
        if self.suggestion:
            text += f" — suggestion: {self.suggestion}"
        return text

    def to_dict(self) -> dict:
        data = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.method is not None:
            data["method"] = list(self.method)
        if self.suggestion:
            data["suggestion"] = self.suggestion
        return data


@dataclass
class AnalysisReport:
    """Aggregated result of all four analyzer passes."""

    old_version: str = ""
    new_version: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: the statically predicted restricted-method closure: every method
    #: key the runtime safe-point scan could possibly treat as restricted
    #: (a provable over-approximation of dsu/safepoint.py's sets)
    predicted_restricted: Set[MethodKey] = field(default_factory=set)
    #: blacklist suggestions for never-returning restricted methods,
    #: ranked by call-graph depth (shallowest — longest-lived — first)
    blacklist_suggestions: List[MethodKey] = field(default_factory=list)
    #: the con-freeness/backward-compatibility verdict
    #: (:class:`repro.analysis.confree.ConFreeVerdict`): is this update
    #: eligible for the engine's zero-pause immediate-bypass mode?
    bc_verdict: Optional[Any] = None
    #: the in-loop OSR mapping report
    #: (:class:`repro.analysis.osrmap.OSRMapReport`) when the sixth pass
    #: ran: verified back-edge remap plans and OM-coded refusals for the
    #: restricted methods whose frames can block forever
    osr_plans: Optional[Any] = None
    #: the restriction closure of pass 2
    #: (:class:`repro.analysis.closure.RestrictionClosure`), kept for
    #: ``dsu-lint --explain``
    closure: Optional[Any] = None

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    # ------------------------------------------------------------------

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == SEVERITY_ERROR for d in self.diagnostics)

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    @property
    def predicted_abort(self) -> str:
        """``"phase/reason"`` the analyzer predicts the runtime will abort
        with, or ``""`` when the update can land. An unreachable safe
        point surfaces at runtime as a safe-point timeout after the retry
        budget burns down; transformer/spec errors surface later, so the
        safe-point prediction wins when both are present. A DSU-SP01
        downgraded to a warning by a verified in-loop OSR plan no longer
        predicts an abort — the engine rescues the frame instead."""
        if any(d.severity == SEVERITY_ERROR
               for d in self.by_code(CODE_UNREACHABLE_SAFEPOINT)):
            return "safepoint/timeout"
        if any(d.code in (CODE_TRANSFORMER_READ, CODE_TRANSFORMER_WRITE,
                          CODE_TRANSFORMER_VERIFY)
               and d.severity == SEVERITY_ERROR for d in self.diagnostics):
            return "transform/transformer-error"
        if self.by_code(CODE_STALE_CATEGORY2):
            return "osr/osr-failed"
        return ""

    # ------------------------------------------------------------------
    # rendering

    def to_dict(self) -> dict:
        return {
            "old_version": self.old_version,
            "new_version": self.new_version,
            "predicted_abort": self.predicted_abort,
            "bc_verdict": (
                self.bc_verdict.to_dict() if self.bc_verdict else None
            ),
            "osr_plans": (
                self.osr_plans.to_dict() if self.osr_plans else None
            ),
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "predicted_restricted": sorted(
                format_method(k) for k in self.predicted_restricted
            ),
            "blacklist_suggestions": [
                list(k) for k in self.blacklist_suggestions
            ],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        """Human-readable listing, errors first."""
        order = {SEVERITY_ERROR: 0, SEVERITY_WARNING: 1, SEVERITY_INFO: 2}
        lines = [
            f"dsu-lint {self.old_version} -> {self.new_version}: "
            f"{len(self.errors())} error(s), {len(self.warnings())} "
            f"warning(s), {len(self.predicted_restricted)} restricted "
            f"method(s) predicted"
        ]
        for diagnostic in sorted(
            self.diagnostics, key=lambda d: (order[d.severity], d.code)
        ):
            lines.append(f"  {diagnostic}")
        verdict = self.predicted_abort
        if verdict:
            lines.append(f"  verdict: update predicted to ABORT ({verdict})")
        else:
            lines.append("  verdict: no statically-detectable blocker")
        if self.bc_verdict is not None:
            failed = sorted({s.rule for s in self.bc_verdict.violations()})
            suffix = f" (violated: {', '.join(failed)})" if failed else ""
            lines.append(
                f"  bc-verdict: {self.bc_verdict.verdict}{suffix}"
            )
        if self.osr_plans is not None and self.osr_plans.targets:
            lines.append(f"  osr-plan: {self.osr_plans.summary()}")
        return "\n".join(lines)
