"""Drives the experience experiments: boot an application version, put it
under load, request a dynamic update, and record what happened.

This is the harness behind the paper's §4 headline numbers (20 of 22
updates applied; OSR needed for two JavaEmailServer updates; Jetty 5.1.3
and JavaEmailServer 1.3 abort; CrossFTP 1.08 applies only when idle).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..apps.registry import APPS
from ..apps.sessions import open_session
from ..compiler.compile import compile_source
from ..dsu.engine import UpdateEngine, UpdateRequest, UpdateResult
from ..dsu.policy import UpdatePolicy
from ..dsu.safepoint import RetryPolicy
from ..dsu.upt import PreparedUpdate, prepare_update
from ..vm.vm import VM


@dataclass
class AppUpdateOutcome:
    """One row of the experience table."""

    app: str
    from_version: str
    to_version: str
    result: UpdateResult
    #: sessions that completed successfully before/during/after the update
    sessions_completed: int = 0
    sessions_failed: int = 0
    #: whether a method-body-only system could apply this update
    body_only_supported: bool = False
    #: ``dsu-lint``'s static verdict before the update ran: the predicted
    #: ``"phase/reason"`` abort attribution, or ``""`` = predicted to land
    predicted_abort: str = ""
    #: the static con-freeness verdict: ``"bypass-eligible"`` or
    #: ``"requires-safepoint"`` (``""`` when the analyzer did not run)
    bc_verdict: str = ""
    #: |restricted set| before/after semantic-diff minimization — the
    #: E6 "restr" column; equal values mean the minimizer proved nothing
    #: on this update
    restricted_before: int = 0
    restricted_after: int = 0
    notes: str = ""

    @property
    def mechanism(self) -> str:
        """Human-readable summary of how the update went through."""
        if not self.result.succeeded:
            return "aborted"
        if self.result.bypassed:
            return "bypass"
        if self.result.osr_rescued:
            return f"inloop-osr({self.result.extended_osr_frames})"
        parts = []
        if self.result.used_return_barriers:
            parts.append("return-barrier")
        if self.result.used_osr:
            parts.append(f"osr({self.result.osr_frames})")
        return "+".join(parts) if parts else "immediate"

    # -- abort attribution (the "why", not just the "that") -------------

    @property
    def abort_phase(self) -> str:
        """Update phase the abort happened in (``""`` when applied)."""
        return self.result.failed_phase

    @property
    def abort_reason_code(self) -> str:
        """Machine-readable abort category (``""`` when applied)."""
        return self.result.reason_code

    @property
    def retry_rounds(self) -> int:
        """Safe-point acquisition rounds used beyond the first."""
        return self.result.retry_rounds

    @property
    def abort_why(self) -> str:
        """Compact ``phase/reason`` attribution for table rendering."""
        if self.result.succeeded:
            return ""
        why = f"{self.abort_phase}/{self.abort_reason_code}"
        if self.retry_rounds:
            why += f" after {self.retry_rounds + 1} rounds"
        return why

    @property
    def bc_eligible(self) -> bool:
        """True when the con-freeness verdict allows immediate bypass."""
        return self.bc_verdict == "bypass-eligible"

    @property
    def prediction_matches(self) -> bool:
        """True when the static verdict agrees with the runtime outcome:
        predicted-to-land updates applied, predicted aborts aborted (the
        predicted phase/reason need not match the runtime's exactly —
        e.g. an unreachable safe point may surface as ``blacklisted``
        once the suggested blacklist entry is adopted)."""
        if self.result.succeeded:
            return self.predicted_abort == ""
        return self.predicted_abort != ""


#: compiled classfiles, process-wide (class metadata is immutable; each VM
#: builds its own runtime state from it), so a fleet or a sweep compiles a
#: release once. Keyed on the source text: ``versions`` dicts are arbitrary.
_classfile_cache: Dict[Tuple[str, str], dict] = {}


class AppDriver:
    """Boots one application version on a fresh VM and applies updates."""

    def __init__(
        self,
        app_name: str,
        versions: Dict[str, str],
        main_class: str,
        heap_cells: int = 1 << 17,
        transformer_overrides: Optional[Dict[Tuple[str, str], Dict[str, str]]] = None,
        quantum: int = 400,
        costs=None,
    ):
        self.app_name = app_name
        self.versions = versions
        self.main_class = main_class
        self.transformer_overrides = transformer_overrides or {}
        self.vm = VM(heap_cells=heap_cells, quantum=quantum, costs=costs)
        self.engine = UpdateEngine(self.vm)
        self.current_version: Optional[str] = None

    @classmethod
    def for_app(cls, app: str, **vm_kwargs) -> "AppDriver":
        """A driver for one of the bundled applications (``APPS``)."""
        info = APPS[app]
        return cls(
            app, info.versions, info.main_class,
            transformer_overrides=info.transformer_overrides, **vm_kwargs,
        )

    # ------------------------------------------------------------------

    def classfiles(self, version: str):
        filename = f"<{self.app_name} {version}>"
        key = (filename, self.versions[version])
        cached = _classfile_cache.get(key)
        if cached is None:
            cached = _classfile_cache[key] = compile_source(
                self.versions[version], filename, version=version
            )
        return cached

    def boot(self, version: str) -> "AppDriver":
        self.vm.boot(self.classfiles(version))
        self.vm.start_main(self.main_class)
        self.current_version = version
        return self

    def prepare(self, to_version: str, minimize: bool = True) -> PreparedUpdate:
        assert self.current_version is not None
        return self.prepare_pair(self.current_version, to_version, minimize)

    def prepare_pair(
        self, from_version: str, to_version: str, minimize: bool = True
    ) -> PreparedUpdate:
        overrides = self.transformer_overrides.get((from_version, to_version), {})
        return prepare_update(
            self.classfiles(from_version),
            self.classfiles(to_version),
            from_version,
            to_version,
            transformer_overrides=overrides or None,
            minimize=minimize,
        )

    def request_update_at(
        self,
        time_ms: float,
        to_version: str,
        policy: Optional[UpdatePolicy] = None,
        minimize: bool = True,
    ) -> Dict[str, UpdateResult]:
        """Schedule an update to ``to_version`` at ``time_ms``; ``policy``
        defaults to :func:`harness_policy`. The returned holder carries
        ``"prepared"`` now and ``"result"`` once the request has fired."""
        prepared = self.prepare(to_version, minimize=minimize)
        request = UpdateRequest(prepared, policy=policy or harness_policy())
        holder: Dict[str, UpdateResult] = {}
        holder["prepared"] = prepared  # type: ignore[assignment]

        def fire():
            holder["result"] = self.engine.submit(request)

        self.vm.events.schedule(time_ms, fire)
        return holder

    def run(
        self, until_ms: Optional[float] = None,
        max_instructions: int = 50_000_000,
    ) -> "AppDriver":
        self.vm.run(until_ms=until_ms, max_instructions=max_instructions)
        return self


# ---------------------------------------------------------------------------
# the one update experiment


def harness_policy(timeout_ms: float = 15_000.0, **overrides) -> UpdatePolicy:
    """The harnesses' default policy: the paper's eager update with one
    ``timeout_ms`` safe-point window, plus the in-loop OSR rescue (22 of
    22). *Not* ``UpdatePolicy()``: its ``inloop_osr="off"`` is the fleet's
    default (:meth:`repro.fleet.controller.RolloutPolicy.update_policy`)."""
    overrides.setdefault("retry", RetryPolicy(timeout_ms=timeout_ms))
    overrides.setdefault("inloop_osr", "auto")
    return UpdatePolicy.paper(**overrides)


#: per-app session start times (simulated ms) for :func:`light_load`
LIGHT_LOAD_STARTS = {
    "jetty": [40 + 150 * i for i in range(5)],
    "javaemail": [40, 500],
    "crossftp": [40, 700],
}


def light_load(vm: VM, app: str) -> list:
    """Periodic light traffic with gaps, so DSU safe points are reachable
    (the paper applied updates under comparable conditions)."""
    return [
        open_session(vm, app, index, at_ms)
        for index, at_ms in enumerate(LIGHT_LOAD_STARTS[app])
    ]


def run_update(
    app: str,
    from_version: str,
    to_version: str,
    policy: UpdatePolicy,
    load: Optional[Callable[[VM, str], list]] = None,
    request_at_ms: float = 300.0,
    until_ms: float = 4_500.0,
    minimize: bool = True,
):
    """The §4 experiment: boot ``from_version`` of a bundled app, schedule
    the ``load(vm, app)`` sessions, submit the update at ``request_at_ms``,
    run to ``until_ms``, and retire a lazy epoch so the run compares with
    an eager one (the drain is in sweep spans, not in a pause phase).
    Returns ``(driver, request_update_at's holder, sessions)``."""
    driver = AppDriver.for_app(app).boot(from_version)
    sessions = load(driver.vm, app) if load is not None else []
    holder = driver.request_update_at(
        request_at_ms, to_version, policy, minimize=minimize
    )
    driver.run(until_ms=until_ms)
    if holder["result"].succeeded and policy.transform == "lazy":
        driver.engine.drain_lazy_epoch()
    return driver, holder, sessions


# ---------------------------------------------------------------------------
# the one artifact contract


#: what every ``report.FIGURES`` row returns: the rendered artifact and
#: the ways its shape departs from the paper's (empty = reproduced)
Figure = Tuple[str, List[str]]


def failed(checks) -> List[str]:
    """A figure's shape gate: the messages of the ``(holds, message)``
    pairs that do not hold."""
    return [message for holds, message in checks if not holds]


def json_figure(payload: dict) -> Figure:
    """A ``BENCH_*.json`` row: the payload as sorted, indented JSON, and
    its ``problems`` (a list, or a map of subject -> list) as lines."""
    problems = payload["problems"]
    if isinstance(problems, dict):
        problems = [
            f"{subject}: {problem}"
            for subject, entries in sorted(problems.items())
            for problem in entries
        ]
    return json.dumps(payload, indent=2, sort_keys=True), problems
