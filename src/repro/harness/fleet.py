"""Fleet campaign harness: rolling updates across every bundled pair.

Runs the paper's 22-update experience sweep at fleet scale: for each
update pair a fresh ≥4-member fleet boots the old version, serves
continuous mixed traffic through the load balancer, and a canary-first
rolling update walks the members through drain → update → verify →
readmit. The two §4 aborting updates (Jetty 5.1.3, JavaEmailServer 1.3)
exhaust the orchestrator's retry budget and halt their rollouts with the
whole fleet still serving the old version — fleet availability must not
care.

A second battery injects every fleet-level fault
(:class:`repro.dsu.faults.FleetFaultPlan`) into a known-good update and
asserts the orchestrator's recovery: crash → restart-on-old-version
rollback, health regression → snapshot rollback, flap → tolerated, drain
stall → deadline overrun recorded, safe-point blockage → retry
exhaustion. ``BENCH_fleet.json`` (:func:`fleet_figure`) carries both
batteries plus the fleet-wide aggregates (availability, transition-tail
latency, rollback counts) and the ``problems`` that fail ``repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.registry import APPS, update_pairs
from ..dsu.faults import FleetFaultInjector, FleetFaultPlan
from ..fleet import (
    FAULT_DRAIN_OVERRUN,
    FAULT_HEALTH_FLAP,
    FAULT_MEMBER_CRASH,
    FAULT_RETRY_EXHAUSTION,
    FleetController,
    RolloutPolicy,
    RolloutReport,
)
from .updates import Figure, json_figure

#: updates whose rollout is expected to halt (the paper's two §4 aborts)
EXPECTED_HALTS = {("jetty", "5.1.2", "5.1.3"), ("javaemail", "1.2.4", "1.3")}

#: the shape of one rollout run (simulated ms): boot, traffic before the
#: rolling update starts, traffic after it ends
_WARMUP_MS = 150.0
_PRELOAD_MS = 200.0
_COOLDOWN_MS = 400.0

#: campaign-wide availability below this is a problem
AVAILABILITY_FLOOR = 0.99

#: fleet size of every committed rollout, campaign and fault scenarios
_MEMBERS = 4

#: traffic RNG seeds (bit-for-bit reproducible): the campaign's first
#: rollout (each next one adds 1) and every fault scenario
_CAMPAIGN_SEED = 11
_SCENARIO_SEED = 23


@dataclass
class CampaignRow:
    """One rolling update's row in the campaign table."""

    app: str
    from_version: str
    to_version: str
    status: str
    rollback_kind: str
    members_updated: int
    faults: List[str]
    sessions_completed: int
    sessions_failed: int
    availability: float
    transition_p99_ms: float
    duration_ms: float
    rollout: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "status": self.status,
            "rollback_kind": self.rollback_kind,
            "members_updated": self.members_updated,
            "faults": list(self.faults),
            "sessions_completed": self.sessions_completed,
            "sessions_failed": self.sessions_failed,
            "availability": round(self.availability, 6),
            "transition_p99_ms": round(self.transition_p99_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
            "rollout": self.rollout,
        }


def run_rollout(
    app: str,
    from_version: str,
    to_version: str,
    seed: int,
    size: int = _MEMBERS,
    faults: Optional[FleetFaultInjector] = None,
    rollout_policy: Optional[RolloutPolicy] = None,
) -> Tuple[RolloutReport, FleetController]:
    """Boot a fresh fleet on ``from_version`` under continuous traffic,
    run one rolling update, let the traffic settle, and return both the
    rollout report and the controller (for its metrics)."""
    controller = FleetController(
        app, from_version, size=size, seed=seed,
        faults=faults, rollout=rollout_policy,
    )
    controller.run_for(_WARMUP_MS)
    controller.start_traffic()
    controller.run_for(_PRELOAD_MS)
    report = controller.rolling_update(to_version)
    controller.run_for(_COOLDOWN_MS)
    controller.stop_traffic()
    # Let the last sessions finish so availability counts them.
    settle_deadline = controller.now + 3_000.0
    while controller.now < settle_deadline and any(
        member.in_flight() for member in controller.members.values()
    ):
        controller.run_for(controller.slice_ms)
    return report, controller


def campaign_row(report: RolloutReport,
                 controller: FleetController) -> CampaignRow:
    return CampaignRow(
        app=report.app,
        from_version=report.from_version,
        to_version=report.to_version,
        status=report.status,
        rollback_kind=report.rollback_kind,
        members_updated=sum(
            1 for member in report.members if member.outcome == "updated"
        ),
        faults=report.fault_names(),
        sessions_completed=controller.sessions_completed(),
        sessions_failed=controller.sessions_failed(),
        availability=controller.availability(),
        transition_p99_ms=controller.transition_p99_ms(),
        duration_ms=report.finished_ms - report.started_ms,
        rollout=report.to_dict(),
    )


def run_campaign(size: int, limit: Optional[int]) -> List[CampaignRow]:
    """The 22-update rolling campaign: one fresh fleet per update pair
    (matching the experience sweep, which also boots each ``from``
    version), continuous mixed traffic throughout."""
    rows: List[CampaignRow] = []
    for app in APPS:
        for from_version, to_version in update_pairs(app):
            if limit is not None and len(rows) >= limit:
                return rows
            report, controller = run_rollout(
                app, from_version, to_version, size=size,
                seed=_CAMPAIGN_SEED + len(rows),
            )
            rows.append(campaign_row(report, controller))
    return rows


# ---------------------------------------------------------------------------
# fault-injection battery


def _scenario_specs() -> List[dict]:
    """Each spec: name, fault plan, optional policy override, and the
    properties the orchestrator must exhibit."""
    return [
        {
            "name": "member-crash-mid-update",
            "plan": FleetFaultPlan(crash_member="m0", crash_after_classes=0),
            "expect_status": "rolled-back",
            "expect_rollback_kind": "restart",
            "expect_fault": FAULT_MEMBER_CRASH,
            "expect_versions": "old",
        },
        {
            "name": "canary-health-regression",
            "plan": FleetFaultPlan(
                health_flap_member="m0", health_flap_checks=99
            ),
            "expect_status": "rolled-back",
            "expect_rollback_kind": "snapshot",
            "expect_fault": "canary-health-regression",
            "expect_versions": "old",
        },
        {
            "name": "health-check-flap",
            "plan": FleetFaultPlan(
                health_flap_member="m0", health_flap_checks=2
            ),
            "expect_status": "completed",
            "expect_rollback_kind": "",
            "expect_fault": FAULT_HEALTH_FLAP,
            "expect_versions": "new",
        },
        {
            "name": "orchestrator-retry-exhaustion",
            "plan": FleetFaultPlan(block_update_member="m0"),
            "policy": RolloutPolicy(
                update_timeout_ms=300.0, update_retries=0,
                max_update_attempts=2,
            ),
            "expect_status": "halted",
            "expect_rollback_kind": "",
            "expect_fault": FAULT_RETRY_EXHAUSTION,
            "expect_versions": "old",
        },
        {
            "name": "drain-deadline-overrun",
            "plan": FleetFaultPlan(stall_drain_member="m0"),
            "policy": RolloutPolicy(drain_deadline_ms=200.0),
            "expect_status": "completed",
            "expect_rollback_kind": "",
            "expect_fault": FAULT_DRAIN_OVERRUN,
            "expect_versions": "new",
        },
    ]


def run_fault_scenarios() -> List[dict]:
    """Inject every fleet-level fault into a known-good update and record
    what the orchestrator did, plus any violated expectation."""
    app = "jetty"
    # The second Jetty pair: it installs classes (so crash-after-classes
    # has something to fire on) and applies cleanly when unfaulted.
    from_version, to_version = update_pairs(app)[1]
    results: List[dict] = []
    for spec in _scenario_specs():
        report, controller = run_rollout(
            app, from_version, to_version, seed=_SCENARIO_SEED,
            faults=FleetFaultInjector(spec["plan"]),
            rollout_policy=spec.get("policy"),
        )
        problems: List[str] = []
        if report.status != spec["expect_status"]:
            problems.append(
                f"status {report.status!r}, expected {spec['expect_status']!r}"
            )
        if report.rollback_kind != spec["expect_rollback_kind"]:
            problems.append(
                f"rollback_kind {report.rollback_kind!r}, expected "
                f"{spec['expect_rollback_kind']!r}"
            )
        if spec["expect_fault"] not in report.fault_names():
            problems.append(
                f"fault {spec['expect_fault']!r} not named in report "
                f"({report.fault_names()})"
            )
        expected_version = (
            to_version if spec["expect_versions"] == "new" else from_version
        )
        wrong = {
            name: version
            for name, version in report.versions.items()
            if version != expected_version
        }
        if wrong:
            problems.append(
                f"members not on the {spec['expect_versions']} version: {wrong}"
            )
        canary = controller.members[report.canary]
        if spec["expect_rollback_kind"] == "snapshot":
            counter = canary.vm.metrics.counters.get("dsu.canary_rollbacks")
            if counter is None or counter.value != 1:
                problems.append("snapshot rollback did not fire on the canary")
        results.append({
            "scenario": spec["name"],
            "status": report.status,
            "rollback_kind": report.rollback_kind,
            "halt_reason": report.halt_reason,
            "faults": report.fault_names(),
            "versions": dict(report.versions),
            "availability": round(controller.availability(), 6),
            "problems": problems,
            "rollout": report.to_dict(),
        })
    return results


# ---------------------------------------------------------------------------
# the BENCH artifact


def fleet_report(
    rows: List[CampaignRow], scenarios: List[dict], size: int
) -> dict:
    """The ``BENCH_fleet.json`` payload, ``problems`` map included."""
    completed = sum(row.sessions_completed for row in rows)
    failed = sum(row.sessions_failed for row in rows)
    availability = completed / (completed + failed) if completed + failed else 1.0
    problems: Dict[str, List[str]] = {}
    if availability < AVAILABILITY_FLOOR:
        problems["campaign"] = [
            f"fleet availability {availability:.4f} below the "
            f"{AVAILABILITY_FLOOR:.2%} floor"
        ]
    for row in rows:
        key = (row.app, row.from_version, row.to_version)
        expected = "halted" if key in EXPECTED_HALTS else "completed"
        if row.status != expected:
            problems.setdefault(
                f"{row.app} {row.from_version}->{row.to_version}", []
            ).append(f"rollout status {row.status!r}, expected {expected!r}")
    for scenario in scenarios:
        if scenario["problems"]:
            problems[f"scenario {scenario['scenario']}"] = list(
                scenario["problems"]
            )
    transition_p99 = max(
        (row.transition_p99_ms for row in rows), default=0.0
    )
    return {
        "benchmark": "fleet-rolling-updates",
        "clock": "simulated",
        "config": {"members": size, "seed": _CAMPAIGN_SEED},
        "fleet": {
            "updates_attempted": len(rows),
            "rollouts_completed": sum(
                1 for row in rows if row.status == "completed"
            ),
            "rollouts_halted": sum(
                1 for row in rows if row.status == "halted"
            ),
            "rollouts_rolled_back": sum(
                1 for row in rows if row.status == "rolled-back"
            ),
            "sessions_completed": completed,
            "sessions_failed": failed,
            "availability": round(availability, 6),
            "transition_p99_ms": round(transition_p99, 3),
            "rollbacks": sum(
                1 for scenario in scenarios
                if scenario["rollback_kind"]
            ),
        },
        "campaign": [row.to_dict() for row in rows],
        "scenarios": scenarios,
        "problems": problems,
    }


def fleet_figure() -> Figure:
    """``BENCH_fleet.json``: the rolling campaign over all 22 pairs on
    4-member fleets, plus the five fault scenarios.

    Its problems fail ``repro report`` if campaign availability drops
    below 99%, if any rollout halts outside the two statically predicted
    paper aborts, if the injected member-crash scenario does not end with
    the canary rolled back (by restart) and the rest of the fleet on the
    old version, or if any scenario kills the orchestrator."""
    return json_figure(fleet_report(
        run_campaign(_MEMBERS, None), run_fault_scenarios(), _MEMBERS
    ))
