"""Fleet-scale rolling updates: controller, balancer and member lifecycle.

Fault-injection scenarios live in ``test_fleet_faults.py``; these tests
cover the happy paths and the building blocks.
"""

import pytest

from repro.fleet import (
    FleetController,
    RolloutPolicy,
    STATE_SERVING,
)
from repro.harness.updates import AppDriver


def make_fleet(app="jetty", version="5.1.1", size=2, seed=7, **kwargs):
    controller = FleetController(app, version, size=size, seed=seed, **kwargs)
    controller.run_for(150)  # boot: main running, listeners bound
    return controller


def warm_traffic(controller, preload_ms=200.0):
    controller.start_traffic(interval_ms=40.0, jitter_ms=8.0)
    controller.run_for(preload_ms)
    return controller


class TestFleetBasics:
    def test_fleet_requires_at_least_two_members(self):
        with pytest.raises(ValueError):
            FleetController("jetty", "5.1.0", size=1)

    def test_members_share_compiled_classfiles(self):
        # Compilation is memoized process-wide: booting N members must
        # reuse the same classfile dict, not recompile.
        first, second = (
            AppDriver.for_app("jetty").classfiles("5.1.0") for _ in range(2)
        )
        assert first is second

    def test_fleet_serves_traffic_in_lockstep(self):
        controller = warm_traffic(make_fleet())
        controller.run_for(600)
        controller.stop_traffic()
        controller.run_for(500)
        assert controller.sessions_completed() > 10
        assert controller.sessions_failed() == 0
        assert controller.availability() == 1.0
        # Lockstep: every member clock sits within one slice of fleet time.
        for member in controller.members.values():
            assert member.vm.clock.now_ms >= controller.now - controller.slice_ms
        # Per-member labelled series exist for each member that served.
        served = {
            key for key in controller.metrics.counters
            if key.startswith("fleet.sessions_completed{")
        }
        assert len(served) == len(controller.members)

    def test_traffic_is_deterministic_for_a_seed(self):
        def arrivals(seed):
            controller = make_fleet(seed=seed)
            controller.start_traffic(interval_ms=40.0, jitter_ms=8.0)
            controller.run_for(400)
            return [
                (record.member, record.routed_at_ms)
                for member in controller.members.values()
                for record in member.sessions
            ]

        assert arrivals(7) == arrivals(7)
        assert arrivals(7) != arrivals(8)


class TestLoadBalancer:
    def test_evict_and_admit_steer_routing(self):
        controller = make_fleet()
        balancer = controller.balancer
        assert [m.name for m in balancer.routable(controller.now)] == [
            "m0", "m1",
        ]
        balancer.evict("m0")
        assert [m.name for m in balancer.routable(controller.now)] == ["m1"]
        record = balancer.route(controller.now)
        assert record is not None and record.member == "m1"
        balancer.admit("m0")
        assert [m.name for m in balancer.routable(controller.now)] == [
            "m0", "m1",
        ]

    def test_route_with_no_members_counts_a_drop(self):
        controller = make_fleet()
        balancer = controller.balancer
        balancer.evict("m0")
        balancer.evict("m1")
        assert balancer.route(controller.now) is None
        assert balancer.dropped == 1

    def test_round_robin_spreads_sessions(self):
        controller = make_fleet()
        members = [
            controller.balancer.route(controller.now).member for _ in range(6)
        ]
        assert members.count("m0") == 3
        assert members.count("m1") == 3


class TestRollingUpdate:
    def test_happy_path_updates_every_member(self):
        controller = warm_traffic(make_fleet(app="jetty", version="5.1.1"))
        report = controller.rolling_update("5.1.2")
        controller.stop_traffic()
        controller.run_for(500)

        assert report.status == "completed"
        assert not report.halted
        assert report.rollback_kind == ""
        assert report.canary == "m0"
        assert report.versions == {"m0": "5.1.2", "m1": "5.1.2"}
        assert [row.outcome for row in report.members] == [
            "updated", "updated",
        ]
        assert report.members[0].canary and not report.members[1].canary
        # The canary's verification window ran probes.
        assert report.members[0].probes
        assert controller._sum_counters("fleet.updates_applied") == 2
        assert controller._sum_counters("fleet.rollbacks") == 0
        assert controller.availability() == 1.0
        for member in controller.members.values():
            assert member.state == STATE_SERVING
            assert member.vm.gc_disabled is False

    def test_rollout_report_is_json_serializable(self):
        import json

        controller = warm_traffic(make_fleet(app="jetty", version="5.1.0"))
        report = controller.rolling_update("5.1.1")
        payload = json.dumps(report.to_dict())
        assert "5.1.1" in payload

    def test_members_already_on_target_are_skipped(self):
        controller = make_fleet(app="jetty", version="5.1.1")
        controller.members["m1"].current_version = "5.1.2"
        report = controller.rolling_update("5.1.2")
        assert report.members[1].outcome == "updated"
        assert report.members[1].attempts == 0
        assert report.versions["m1"] == "5.1.2"

    def test_a_rollout_prepares_the_update_once(self, monkeypatch):
        prepares = []
        prepare = AppDriver.prepare

        def counting_prepare(driver, to_version, *args, **kwargs):
            prepares.append(to_version)
            return prepare(driver, to_version, *args, **kwargs)

        monkeypatch.setattr(AppDriver, "prepare", counting_prepare)
        controller = make_fleet(app="jetty", version="5.1.1", size=3)
        report = controller.rolling_update("5.1.2")
        assert report.status == "completed"
        assert report.versions == {m: "5.1.2" for m in ("m0", "m1", "m2")}
        assert prepares == ["5.1.2"]

    def test_a_member_behind_the_canary_gets_its_own_update(self):
        # The canary already runs the target; m1 must still get the
        # 5.1.1 -> 5.1.2 diff, not the canary's empty 5.1.2 -> 5.1.2 one.
        controller = make_fleet(app="jetty", version="5.1.1")
        controller.members["m0"].current_version = "5.1.2"
        report = controller.rolling_update("5.1.2")
        assert report.versions["m1"] == "5.1.2"
        expected = AppDriver.for_app("jetty").prepare_pair("5.1.1", "5.1.2")
        changed = sorted(expected.spec.method_body_updates)
        assert changed
        for owner, name, descriptor in changed:
            entry = controller.members["m1"].vm.methods.lookup(
                owner, name, descriptor
            )
            new = expected.new_classfiles[owner].get_method(name, descriptor)
            assert entry.info.instructions == new.instructions

    def test_transition_latency_recorded_during_rollout(self):
        controller = warm_traffic(make_fleet(app="jetty", version="5.1.1"))
        controller.rolling_update("5.1.2")
        controller.stop_traffic()
        controller.run_for(500)
        assert controller.transition_p99_ms() > 0.0
