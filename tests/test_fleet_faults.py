"""Fleet-level fault injection: every scenario must end with a structured
rollout report naming the fault, the fleet still serving, and the
orchestrator alive — no fault may raise out of ``rolling_update``.

Mirrors the harness scenarios (``repro.harness.fleet``) at unit-test
scale: two members, jetty 5.1.1 -> 5.1.2 (a pair that installs classes,
so mid-install crash points actually fire).
"""

import pytest

from repro.dsu.faults import FaultPlan, FleetFaultInjector, FleetFaultPlan
from repro.fleet import (
    FAULT_CANARY_REGRESSION,
    FAULT_DRAIN_OVERRUN,
    FAULT_HEALTH_FLAP,
    FAULT_MEMBER_CRASH,
    FAULT_RETRY_EXHAUSTION,
    FleetController,
    RolloutPolicy,
    STATE_SERVING,
)

OLD, NEW = "5.1.1", "5.1.2"


def run_scenario(plan, rollout=None, size=2, seed=7,
                 injector=FleetFaultInjector):
    controller = FleetController(
        "jetty", OLD, size=size, seed=seed, rollout=rollout,
        faults=injector(plan),
    )
    controller.run_for(150)
    controller.start_traffic(interval_ms=40.0, jitter_ms=8.0)
    controller.run_for(200)
    report = controller.rolling_update(NEW)
    controller.stop_traffic()
    controller.run_for(500)
    return controller, report


def assert_fleet_alive(controller):
    """Whatever the fault did, the fleet must still serve traffic."""
    before = controller.sessions_completed()
    controller.start_traffic(interval_ms=40.0, jitter_ms=8.0)
    controller.run_for(400)
    controller.stop_traffic()
    controller.run_for(500)
    assert controller.sessions_completed() > before
    for member in controller.members.values():
        assert member.state == STATE_SERVING


class TestMemberCrashMidUpdate:
    def test_canary_crash_rolls_back_by_restart_and_halts(self):
        controller, report = run_scenario(
            FleetFaultPlan(crash_member="m0", crash_after_classes=0)
        )
        assert report.status == "rolled-back"
        assert report.rollback_kind == "restart"
        assert report.halted
        assert FAULT_MEMBER_CRASH in report.fault_names()
        assert "m0" in report.halt_reason
        # Canary restarted on the old version; the rest never started.
        assert report.versions == {"m0": OLD, "m1": OLD}
        assert report.members[0].outcome == "crash-recovered"
        assert report.members[1].outcome == "skipped"
        assert controller.members["m0"].restarts == 1
        assert controller._sum_counters("fleet.member_crashes") == 1
        assert controller._sum_counters("fleet.rollbacks") == 1
        assert_fleet_alive(controller)

    def test_crash_strands_sessions_as_member_crash_failures(self):
        controller, _ = run_scenario(
            FleetFaultPlan(crash_member="m0", crash_after_classes=0)
        )
        key = controller.metrics.labelled(
            "fleet.session_failures", kind="member-crash"
        )
        # Sessions open on the dying VM (if any were in flight past the
        # drain) are recorded as member-crash losses, never left pending.
        stranded = controller.metrics.counters.get(key)
        for member in controller.members.values():
            for record in member.sessions:
                assert record.done or not record.lost
        if stranded is not None:
            assert stranded.value >= 1


class TestCanaryHealthRegression:
    def test_unhealthy_streak_triggers_a_reverse_update(self):
        controller, report = run_scenario(
            FleetFaultPlan(health_flap_member="m0", health_flap_checks=99)
        )
        assert report.status == "rolled-back"
        assert report.rollback_kind == "reverse-update"
        assert report.halted
        assert FAULT_CANARY_REGRESSION in report.fault_names()
        assert report.versions == {"m0": OLD, "m1": OLD}
        canary_row = report.members[0]
        assert canary_row.outcome == "rolled-back"
        assert canary_row.faults[-1] == FAULT_CANARY_REGRESSION
        # The canary was updated back in place, not restarted.
        canary = controller.members["m0"]
        assert canary.restarts == 0
        forward, reverse = canary.engine.history
        assert forward.succeeded and reverse.succeeded
        assert (reverse.old_version, reverse.new_version) == (NEW, OLD)
        assert canary.vm.gc_disabled is False
        assert controller._sum_counters("fleet.rollbacks") == 1
        assert_fleet_alive(controller)

    @pytest.mark.parametrize("reverse_fault, outcome", [
        (FaultPlan(block_safepoint_forever=True), "exhausted"),
        (FaultPlan(crash_after_classes=0), "crashed"),
    ])
    def test_a_reverse_update_that_cannot_land_falls_back_to_a_restart(
            self, reverse_fault, outcome):
        class FaultTheReverse(FleetFaultInjector):
            """The canary's forward update is clean; every later attempt
            on it gets ``reverse_fault``."""

            submits = 0

            def engine_plan_for(self, member, attempt):
                if member == "m0":
                    self.submits += 1
                    if self.submits > 1:
                        return reverse_fault
                return super().engine_plan_for(member, attempt)

        controller, report = run_scenario(
            FleetFaultPlan(health_flap_member="m0", health_flap_checks=99),
            rollout=RolloutPolicy(update_timeout_ms=300.0, update_retries=0),
            injector=FaultTheReverse,
        )
        assert report.status == "rolled-back"
        assert report.rollback_kind == "restart"
        assert f"reverse update {outcome}, restarted on {OLD}" in (
            report.halt_reason)
        assert report.versions == {"m0": OLD, "m1": OLD}
        assert report.members[0].outcome == "rolled-back"
        assert (FAULT_MEMBER_CRASH in report.fault_names()) == (
            outcome == "crashed")
        canary = controller.members["m0"]
        assert canary.restarts == 1
        assert canary.engine.history == []  # a fresh VM on the old version
        assert controller._sum_counters("fleet.rollbacks") == 1
        assert_fleet_alive(controller)

    def test_unhealthy_probes_are_recorded_in_the_report(self):
        _, report = run_scenario(
            FleetFaultPlan(health_flap_member="m0", health_flap_checks=99)
        )
        probes = report.members[0].probes
        unhealthy = [p for p in probes if p["status"] == "unhealthy"]
        policy = RolloutPolicy()
        assert len(unhealthy) >= policy.unhealthy_probes_to_rollback
        assert all(p["injected"] for p in unhealthy)


class TestHealthCheckFlap:
    def test_short_flap_is_tolerated_and_rollout_completes(self):
        controller, report = run_scenario(
            FleetFaultPlan(health_flap_member="m0", health_flap_checks=2)
        )
        # Two forced-unhealthy probes stay under the rollback streak (3):
        # the fault is *recorded* but the rollout still lands everywhere.
        assert report.status == "completed"
        assert not report.halted
        assert FAULT_HEALTH_FLAP in report.fault_names()
        assert report.versions == {"m0": NEW, "m1": NEW}
        assert controller._sum_counters("fleet.rollbacks") == 0
        assert_fleet_alive(controller)


class TestRetryExhaustion:
    POLICY = RolloutPolicy(
        update_timeout_ms=300.0, update_retries=0, max_update_attempts=2
    )

    def test_canary_exhaustion_halts_with_structured_abort(self):
        controller, report = run_scenario(
            FleetFaultPlan(block_update_member="m0"), rollout=self.POLICY
        )
        assert report.status == "halted"
        assert report.rollback_kind == ""  # nothing was ever applied
        assert FAULT_RETRY_EXHAUSTION in report.fault_names()
        assert report.versions == {"m0": OLD, "m1": OLD}
        row = report.members[0]
        assert row.outcome == "retry-exhausted"
        assert row.attempts == self.POLICY.max_update_attempts
        assert row.abort_why == "safepoint/timeout"
        assert controller._sum_counters("fleet.updates_aborted") == 1
        assert_fleet_alive(controller)

    def test_transient_block_succeeds_on_second_attempt(self):
        controller, report = run_scenario(
            FleetFaultPlan(
                block_update_member="m0", block_update_attempts=1
            ),
            rollout=self.POLICY,
        )
        # Only the first submit() attempt is sabotaged; the retry lands.
        assert report.status == "completed"
        assert report.versions == {"m0": NEW, "m1": NEW}
        assert report.members[0].attempts == 2
        assert_fleet_alive(controller)


class TestDrainDeadlineOverrun:
    def test_stalled_drain_is_recorded_but_not_fatal(self):
        controller, report = run_scenario(
            FleetFaultPlan(stall_drain_member="m0"),
            rollout=RolloutPolicy(drain_deadline_ms=200.0),
        )
        assert report.status == "completed"
        assert FAULT_DRAIN_OVERRUN in report.fault_names()
        assert report.versions == {"m0": NEW, "m1": NEW}
        row = report.members[0]
        assert row.drain_overrun
        assert row.drain_ms >= 200.0
        assert controller._sum_counters("fleet.drain_overruns") == 1
        assert_fleet_alive(controller)

    def test_drain_casualties_do_not_count_against_health(self):
        controller, report = run_scenario(
            FleetFaultPlan(stall_drain_member="m0"),
            rollout=RolloutPolicy(drain_deadline_ms=200.0),
        )
        # The canary's verify probes must not blame the new version for
        # sessions the drain deadline cut off.
        assert report.status == "completed"
        for probe in report.members[0].probes:
            assert probe["status"] != "unhealthy"
