"""Fleet controller: N member VMs in lockstep, plus the rolling-update
orchestrator with health-gated automatic rollback.

The controller owns fleet time. Each :meth:`FleetController._step_slice`
advances every member VM to the next slice boundary (``slice_ms`` apart),
emits the traffic due in that slice through the load balancer, and folds
newly finished sessions into the fleet metrics registry (per-member
labelled series). Member clocks therefore agree to within one slice, and
the whole fleet — traffic arrivals included — is deterministic for a
given seed.

A rolling update walks the members canary-first through the state
machine::

    draining -> updating -> verifying -> readmitted
                                      -> rolled-back

* **draining** — the balancer stops admitting; in-flight sessions get
  ``drain_deadline_ms`` to finish (overrun is recorded, never fatal).
* **updating** — ``UpdateEngine.submit`` with the orchestrator's retry
  budget; the canary holds its transaction snapshot across the verify
  window. A :class:`~repro.dsu.faults.VMCrash` here marks the member
  crashed; recovery restarts it on the old version.
* **verifying** (canary only) — readmitted under biased traffic while
  periodic health probes watch error rate and p99 latency; a streak of
  unhealthy probes triggers :meth:`UpdateEngine.rollback_applied` — the
  PR-1 snapshot rollback — and halts the rollout with the rest of the
  fleet untouched on the old version.
* **readmitted** — the snapshot is committed and the next member starts.

Every fault path produces a structured entry in the
:class:`RolloutReport` (``report.faults``) naming the member and the
fault; no path raises out of :meth:`FleetController.rolling_update`.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dsu.engine import PENDING, UpdateResult
from ..dsu.faults import FleetFaultInjector
from ..dsu.policy import UpdatePolicy
from ..dsu.safepoint import RetryPolicy
from ..dsu.upt import PreparedUpdate
from ..obs.metrics import Metrics
from .balancer import LoadBalancer
from .health import (
    HEALTHY,
    UNHEALTHY,
    HealthChecker,
    HealthPolicy,
    HealthVerdict,
)
from .member import (
    STATE_CRASHED,
    STATE_DRAINING,
    STATE_SERVING,
    STATE_VERIFYING,
    FleetMember,
)

#: structured fault names appearing in ``RolloutReport.faults``
FAULT_DRAIN_OVERRUN = "drain-deadline-overrun"
FAULT_MEMBER_CRASH = "member-crash-mid-update"
FAULT_HEALTH_FLAP = "health-check-flap"
FAULT_RETRY_EXHAUSTION = "orchestrator-retry-exhaustion"
FAULT_CANARY_REGRESSION = "canary-health-regression"


@dataclass(frozen=True)
class RolloutPolicy:
    """Orchestrator budgets for one rolling update."""

    drain_deadline_ms: float = 400.0
    #: canary verification window (extends once if probes stay inconclusive)
    verify_window_ms: float = 400.0
    verify_extension_ms: float = 400.0
    probe_interval_ms: float = 100.0
    #: consecutive unhealthy probes that trigger the snapshot rollback
    unhealthy_probes_to_rollback: int = 3
    #: whole submit() attempts per member (each with its own retry policy)
    max_update_attempts: int = 2
    update_timeout_ms: float = 800.0
    update_retries: int = 1
    update_backoff: float = 2.0
    #: non-canary member failures tolerated before the rollout halts
    failure_budget: int = 1
    restart_warmup_ms: float = 60.0

    def update_policy(self, canary: bool = False) -> UpdatePolicy:
        """The fleet's update policy: ``UpdatePolicy()`` — the paper's
        eager update *without* the harnesses' in-loop OSR rescue
        (``repro.harness.updates.harness_policy``), so the two §4 aborts
        halt their rollouts — under the orchestrator's retry budget; the
        canary holds its transaction open across the verify window."""
        return UpdatePolicy(
            retry=RetryPolicy(
                timeout_ms=self.update_timeout_ms,
                retries=self.update_retries,
                backoff=self.update_backoff,
            ),
            hold_transaction=canary,
        )


@dataclass
class MemberRollout:
    """One member's row in the rollout report."""

    member: str
    canary: bool
    outcome: str = "skipped"
    attempts: int = 0
    drain_ms: float = 0.0
    drain_overrun: bool = False
    pause_ms: float = 0.0
    abort_why: str = ""
    faults: List[str] = field(default_factory=list)
    probes: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "member": self.member,
            "canary": self.canary,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "drain_ms": round(self.drain_ms, 3),
            "drain_overrun": self.drain_overrun,
            "pause_ms": round(self.pause_ms, 3),
            "abort_why": self.abort_why,
            "faults": list(self.faults),
            "probes": list(self.probes),
        }


@dataclass
class RolloutReport:
    """Structured outcome of one rolling update across the fleet."""

    app: str
    from_version: str
    to_version: str
    canary: str
    #: "completed" | "rolled-back" | "halted"
    status: str = "completed"
    #: how the canary came back: "" (it didn't), "snapshot"
    #: (transaction rollback) or "restart" (crash recovery)
    rollback_kind: str = ""
    halt_reason: str = ""
    halted: bool = False
    members: List[MemberRollout] = field(default_factory=list)
    #: structured fault log: {"member", "fault", "detail"} dicts
    faults: List[dict] = field(default_factory=list)
    #: member -> version actually serving when the rollout ended
    versions: Dict[str, str] = field(default_factory=dict)
    started_ms: float = 0.0
    finished_ms: float = 0.0

    @property
    def rolled_back(self) -> bool:
        return self.status == "rolled-back"

    def fault_names(self) -> List[str]:
        return [entry["fault"] for entry in self.faults]

    def record_fault(self, row: MemberRollout, fault: str,
                     detail: str) -> None:
        """Log ``fault`` on the member's row and in the fleet fault log."""
        row.faults.append(fault)
        self.faults.append(
            {"member": row.member, "fault": fault, "detail": detail}
        )

    def halt(self, reason: str, rollback_kind: str = "") -> None:
        """Stop the rollout: ``"rolled-back"`` when the canary came back
        (``rollback_kind`` says how), else ``"halted"``."""
        self.status = "rolled-back" if rollback_kind else "halted"
        self.rollback_kind = rollback_kind
        self.halted = True
        self.halt_reason = reason

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "canary": self.canary,
            "status": self.status,
            "rollback_kind": self.rollback_kind,
            "halt_reason": self.halt_reason,
            "members": [m.to_dict() for m in self.members],
            "faults": list(self.faults),
            "versions": dict(self.versions),
            "started_ms": round(self.started_ms, 3),
            "finished_ms": round(self.finished_ms, 3),
        }


class FleetController:
    """Owns the member VMs, fleet time, traffic, and rollouts."""

    def __init__(
        self,
        app: str,
        version: str,
        size: int = 4,
        seed: int = 11,
        slice_ms: float = 10.0,
        health: Optional[HealthPolicy] = None,
        rollout: Optional[RolloutPolicy] = None,
        faults: Optional[FleetFaultInjector] = None,
    ):
        if size < 2:
            raise ValueError("a fleet needs at least 2 members")
        self.app = app
        self.seed = seed
        self.slice_ms = slice_ms
        self.metrics = Metrics()
        self.members: Dict[str, FleetMember] = {
            f"m{i}": FleetMember(f"m{i}", app, version)
            for i in range(size)
        }
        self.balancer = LoadBalancer(self.members, self.metrics)
        self.health = HealthChecker(health or HealthPolicy())
        self.rollout_policy = rollout or RolloutPolicy()
        self.faults = faults
        self.now = 0.0
        self._rng = random.Random(seed)
        self._next_spawn_ms: Optional[float] = None
        self._traffic_interval_ms = 0.0
        self._traffic_jitter_ms = 0.0
        #: True while any member is mid-rollout (tags session latency as
        #: "during transition" for the tail-latency-during-transitions
        #: series)
        self.in_transition = False

    # ------------------------------------------------------------------
    # fleet time

    def _step_slice(self) -> None:
        end = self.now + self.slice_ms
        self._emit_traffic(end)
        for member in self.members.values():
            member.run_slice(end)
        self.now = end
        self._harvest()

    def run_until(self, until_ms: float) -> None:
        while self.now < until_ms - 1e-9:
            self._step_slice()

    def run_for(self, ms: float) -> None:
        self.run_until(self.now + ms)

    # ------------------------------------------------------------------
    # traffic

    def start_traffic(
        self, interval_ms: float = 45.0, jitter_ms: float = 10.0
    ) -> None:
        """Continuous session arrivals, one every ``interval_ms`` plus a
        seeded uniform jitter — deterministic for a given seed."""
        self._traffic_interval_ms = interval_ms
        self._traffic_jitter_ms = jitter_ms
        self._next_spawn_ms = self.now + self._rng.uniform(0.0, jitter_ms)

    def stop_traffic(self) -> None:
        self._next_spawn_ms = None

    def _emit_traffic(self, slice_end_ms: float) -> None:
        while self._next_spawn_ms is not None and self._next_spawn_ms < slice_end_ms:
            record = self.balancer.route(max(self._next_spawn_ms, self.now))
            if record is not None and self.in_transition:
                record.during_transition = True
            self._next_spawn_ms += self._traffic_interval_ms + self._rng.uniform(
                0.0, self._traffic_jitter_ms
            )

    def _harvest(self) -> None:
        for member in self.members.values():
            for record in member.sessions:
                if record.accounted or not record.done:
                    continue
                record.accounted = True
                if self.in_transition:
                    record.during_transition = True
                if record.succeeded:
                    self.metrics.inc(
                        "fleet.sessions_completed", member=member.name
                    )
                    duration = record.duration_ms
                    if duration is not None:
                        self.metrics.observe(
                            "fleet.session_latency_ms", duration,
                            member=member.name,
                        )
                        if record.during_transition:
                            self.metrics.observe(
                                "fleet.transition_latency_ms", duration
                            )
                else:
                    if record.drain_casualty:
                        self.metrics.inc(
                            "fleet.sessions_drain_casualties",
                            member=member.name,
                        )
                    else:
                        self.metrics.inc(
                            "fleet.sessions_failed", member=member.name
                        )
                    self.metrics.inc(
                        "fleet.session_failures", kind=record.failure_kind
                    )

    # ------------------------------------------------------------------
    # fleet-wide stats

    def _sum_counters(self, name: str) -> int:
        prefix = f"{name}{{"
        return sum(
            counter.value
            for key, counter in self.metrics.counters.items()
            if key == name or key.startswith(prefix)
        )

    def sessions_completed(self) -> int:
        return self._sum_counters("fleet.sessions_completed")

    def sessions_failed(self) -> int:
        """Every lost session: hard failures, drain casualties, drops."""
        return (
            self._sum_counters("fleet.sessions_failed")
            + self._sum_counters("fleet.sessions_drain_casualties")
            + self.balancer.dropped
        )

    def availability(self) -> float:
        completed = self.sessions_completed()
        total = completed + self.sessions_failed()
        return completed / total if total else 1.0

    def transition_p99_ms(self) -> float:
        histogram = self.metrics.histograms.get("fleet.transition_latency_ms")
        if histogram is None or not histogram.samples:
            return 0.0
        return histogram.percentile(0.99)

    # ------------------------------------------------------------------
    # rolling update

    def rolling_update(self, to_version: str) -> RolloutReport:
        """Drive a canary-first rolling update of the whole fleet. The
        update is prepared once per version the members start from, and
        every member on that version gets the same one. Always returns a
        report — every failure mode is recorded, none raises."""
        policy = self.rollout_policy
        order = sorted(self.members)
        prepared: Dict[str, PreparedUpdate] = {}  # from-version -> update
        report = RolloutReport(
            app=self.app,
            from_version=self.members[order[0]].current_version or "",
            to_version=to_version,
            canary=order[0],
            started_ms=self.now,
        )
        self.in_transition = True
        failures = 0
        for position, name in enumerate(order):
            row = MemberRollout(name, canary=(position == 0))
            report.members.append(row)
            if report.halted:
                continue  # remaining members stay on the old version
            member = self.members[name]
            if member.current_version == to_version:
                row.outcome = "updated"
                continue
            old_version = member.current_version or ""
            if old_version not in prepared:
                prepared[old_version] = member.driver.prepare(to_version)
            self._drain(member, row, report)
            outcome, result = self._update(
                member, row, prepared[old_version], is_canary=row.canary
            )
            if outcome == "crashed":
                failures += 1
                self._recover_crash(
                    member, row, report, old_version, is_canary=row.canary,
                    failures=failures,
                )
            elif outcome == "exhausted":
                failures += 1
                self._record_exhaustion(
                    member, row, report, result, is_canary=row.canary,
                    failures=failures,
                )
            elif row.canary:
                self._verify_canary(member, row, report, result, to_version)
            else:
                member.current_version = to_version
                member.state = STATE_SERVING
                self.balancer.admit(name)
                row.outcome = "updated"
                row.pause_ms = result.total_pause_ms
                self.metrics.inc("fleet.updates_applied")
                self.run_for(policy.probe_interval_ms)
                row.probes.append(
                    self.health.probe(member, self.now - policy.probe_interval_ms)
                    .to_dict()
                )
        self.in_transition = False
        report.versions = {
            name: self.members[name].current_version or ""
            for name in order
        }
        report.finished_ms = self.now
        return report

    # -- rollout phases -------------------------------------------------

    def _drain(self, member: FleetMember, row: MemberRollout,
               report: RolloutReport) -> None:
        policy = self.rollout_policy
        member.state = STATE_DRAINING
        self.balancer.evict(member.name)
        start = self.now
        stalled = (
            self.faults.stalls_drain(member.name)
            if self.faults is not None else False
        )
        deadline = self.now + policy.drain_deadline_ms
        while self.now < deadline:
            if not stalled and not member.in_flight():
                break
            self._step_slice()
        row.drain_ms = self.now - start
        leftovers = member.in_flight()
        row.drain_overrun = stalled or bool(leftovers)
        if row.drain_overrun:
            for record in leftovers:
                record.drain_casualty = True
            report.record_fault(
                row, FAULT_DRAIN_OVERRUN,
                f"{len(leftovers)} session(s) still in flight after "
                f"{policy.drain_deadline_ms}ms drain window",
            )
            self.metrics.inc("fleet.drain_overruns")

    def _update(self, member: FleetMember, row: MemberRollout,
                prepared: PreparedUpdate, is_canary: bool):
        """Run the submit/retry loop; returns (outcome, last_result) with
        outcome in {"applied", "crashed", "exhausted"}."""
        policy = self.rollout_policy
        update_policy = policy.update_policy(canary=is_canary)
        result: Optional[UpdateResult] = None
        for attempt in range(policy.max_update_attempts):
            plan = (
                self.faults.engine_plan_for(member.name, attempt)
                if self.faults is not None else None
            )
            result = member.submit_update(
                prepared, update_policy, fault_plan=plan
            )
            row.attempts = attempt + 1
            hard_stop = (
                self.now + update_policy.retry.total_budget_ms() + 1_000.0
            )
            while (
                result.status == PENDING
                and self.now < hard_stop
                and member.state != STATE_CRASHED
            ):
                self._step_slice()
            if member.state == STATE_CRASHED:
                return ("crashed", result)
            if result.succeeded:
                return ("applied", result)
            if result.status == PENDING:
                # The engine never resolved within its own budget plus
                # margin — treat as exhausted rather than resubmitting on
                # top of a still-active update.
                return ("exhausted", result)
        return ("exhausted", result)

    def _recover_crash(self, member: FleetMember, row: MemberRollout,
                       report: RolloutReport, old_version: str,
                       is_canary: bool, failures: int) -> None:
        """The member's VM died mid-update: restart it on the old version
        (an *operational* rollback) and decide whether the rollout may
        continue."""
        policy = self.rollout_policy
        detail = str(member.crash) if member.crash is not None else "crashed"
        member.restart(old_version, self.now, policy.restart_warmup_ms)
        self._harvest()  # account the sessions the crash stranded
        self.balancer.admit(member.name)
        row.outcome = "crash-recovered"
        report.record_fault(row, FAULT_MEMBER_CRASH, detail)
        self.metrics.inc("fleet.member_crashes")
        if is_canary:
            report.halt(
                f"canary {member.name} crashed mid-update; restarted on "
                f"{old_version}, rollout halted",
                rollback_kind="restart",
            )
            self.metrics.inc("fleet.rollbacks")
        elif failures > policy.failure_budget:
            report.halt(
                f"failure budget exceeded ({failures} > "
                f"{policy.failure_budget}) after {member.name} crashed"
            )
        self.run_for(policy.restart_warmup_ms)

    def _record_exhaustion(self, member: FleetMember, row: MemberRollout,
                           report: RolloutReport,
                           result: Optional[UpdateResult],
                           is_canary: bool, failures: int) -> None:
        """Every update attempt aborted: the member keeps serving the old
        version (the engine rolled each attempt back) and the orchestrator
        records its retry budget as exhausted."""
        policy = self.rollout_policy
        member.state = STATE_SERVING
        self.balancer.admit(member.name)
        row.outcome = "retry-exhausted"
        if result is not None and result.status != PENDING:
            row.abort_why = f"{result.failed_phase}/{result.reason_code}"
        report.record_fault(
            row, FAULT_RETRY_EXHAUSTION,
            f"{row.attempts} attempt(s) exhausted; last abort: "
            f"{row.abort_why or 'unresolved'}",
        )
        self.metrics.inc("fleet.updates_aborted")
        if is_canary:
            report.halt(
                f"canary {member.name} update aborted: "
                f"{row.abort_why or 'unresolved'}"
            )
        elif failures > policy.failure_budget:
            report.halt(
                f"failure budget exceeded ({failures} > "
                f"{policy.failure_budget}) after {member.name} aborted"
            )

    def _verify_canary(self, member: FleetMember, row: MemberRollout,
                       report: RolloutReport, result: UpdateResult,
                       to_version: str) -> None:
        """Serve biased traffic on the freshly updated canary while health
        probes decide: commit the held transaction, or roll it back."""
        policy = self.rollout_policy
        member.state = STATE_VERIFYING
        self.balancer.admit(member.name)
        self.balancer.verify_bias = member.name
        verify_start = self.now
        next_probe = self.now + policy.probe_interval_ms
        soft_deadline = self.now + policy.verify_window_ms
        hard_deadline = soft_deadline + policy.verify_extension_ms
        streak = 0
        flap_reported = False
        last_unhealthy: Optional[HealthVerdict] = None
        decision: Optional[str] = None
        while decision is None:
            self._step_slice()
            if self.now + 1e-9 < next_probe:
                continue
            next_probe += policy.probe_interval_ms
            verdict = self.health.probe(member, verify_start)
            override = (
                self.faults.health_override(member.name)
                if self.faults is not None else None
            )
            if override is not None:
                verdict = HealthVerdict(
                    member.name,
                    HEALTHY if override else UNHEALTHY,
                    reason="injected health-check override",
                    injected=True,
                )
                if not override and not flap_reported:
                    flap_reported = True
                    report.record_fault(row, FAULT_HEALTH_FLAP,
                                        "health probe forced unhealthy")
            row.probes.append(verdict.to_dict())
            if verdict.status == UNHEALTHY:
                streak += 1
                last_unhealthy = verdict
            elif verdict.status == HEALTHY:
                streak = 0
            if streak >= policy.unhealthy_probes_to_rollback:
                decision = "regressed"
            elif self.now >= soft_deadline and verdict.status == HEALTHY:
                decision = "healthy"
            elif self.now >= hard_deadline:
                # No regression evidence inside the extended window.
                decision = "healthy"
        if decision == "healthy":
            member.engine.commit_applied(result)
            member.current_version = to_version
            member.state = STATE_SERVING
            self.balancer.verify_bias = None
            row.outcome = "updated"
            row.pause_ms = result.total_pause_ms
            self.metrics.inc("fleet.updates_applied")
            return
        # Regression: quiesce the verify traffic, then undo the update
        # from its held snapshot — the whole world is parked at yield
        # points between slices, which is what rollback_applied requires.
        self.balancer.evict(member.name)
        quiesce_deadline = self.now + policy.drain_deadline_ms
        while self.now < quiesce_deadline and member.in_flight():
            self._step_slice()
        for record in member.in_flight():
            record.drain_casualty = True
        member.engine.rollback_applied(result)
        member.state = STATE_SERVING
        self.balancer.admit(member.name)
        row.outcome = "rolled-back"
        row.pause_ms = result.total_pause_ms
        detail = (
            last_unhealthy.reason if last_unhealthy is not None
            else "health verification failed"
        )
        report.halt(
            f"canary {member.name} failed health verification: {detail}",
            rollback_kind="snapshot",
        )
        report.faults.append({
            "member": member.name,
            "fault": FAULT_CANARY_REGRESSION,
            "detail": detail,
        })
        self.metrics.inc("fleet.rollbacks")
