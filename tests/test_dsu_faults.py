"""Transactional-abort tests driven by the fault-injection harness.

Every test injects one failure mode into an otherwise-healthy update and
asserts the same contract: the update reports a structured abort (phase +
reason code), the VM is *not* halted, the pre-update state is intact, and
the old-version workload keeps running to completion afterwards.
"""

import pytest

from repro.dsu.engine import UpdateEngine, UpdateRequest
from repro.dsu.faults import FaultInjector, FaultPlan
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from tests.dsu_helpers import UpdateFixture
from tests.test_gc_extras import UPDATE_V1, UPDATE_V2


def pool_fields(vm):
    """Field names of the first pooled Item — the update adds ``c``."""
    pool = vm.registry.get("Pool")
    array = vm.jtoc.read(pool.static_slots["items"])
    item = vm.objects.array_get(array, 0)
    return [slot.name for slot in vm.objects.class_of(item).field_layout]


def rounds_done(vm):
    main = vm.registry.get("Main")
    return vm.jtoc.read(main.static_slots["rounds"])


def inject(fixture, plan):
    fixture.engine.fault_injector = FaultInjector(plan)
    return fixture


def assert_clean_abort(fixture, result, phase, reason_code, rolled_back=True):
    assert result.status == "aborted", result.status
    assert result.failed_phase == phase
    assert result.reason_code == reason_code
    assert result.rolled_back is rolled_back
    assert fixture.vm.halted is False


def assert_old_version_workload_completes(fixture):
    """The pooled-items program still finishes all 60 rounds on v1."""
    assert pool_fields(fixture.vm) == ["a", "b"]
    fixture.run(until_ms=10_000)
    assert fixture.vm.halted is False
    assert rounds_done(fixture.vm) == 60
    vm = fixture.vm
    pool = vm.registry.get("Pool")
    array = vm.jtoc.read(pool.static_slots["items"])
    assert vm.objects.array_length(array) == 50
    for index in range(50):
        item = vm.objects.array_get(array, index)
        assert vm.objects.read_field(item, "a") == 0


class TestSafepointFaults:
    def test_injected_blocker_times_out_without_side_effects(self):
        fixture = inject(
            UpdateFixture(UPDATE_V1),
            FaultPlan(block_safepoint_forever=True),
        ).start()
        holder = fixture.update_at(55, UPDATE_V2, timeout_ms=300)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        # Pre-installation abort: side-effect-free, so no rollback needed.
        assert_clean_abort(fixture, result, "safepoint", "timeout",
                           rolled_back=False)
        assert "timeout" in result.reason
        assert "<injected-safepoint-blocker>" in result.blockers_seen
        assert result.injected_faults
        assert "v10_Item" not in fixture.vm.classfiles
        assert_old_version_workload_completes(fixture)

    def test_retry_rounds_exhaust_then_abort(self):
        fixture = inject(
            UpdateFixture(UPDATE_V1),
            FaultPlan(block_safepoint_forever=True),
        ).start()
        prepared = fixture.prepare(UPDATE_V2)
        holder = {}
        fixture.vm.events.schedule(55, lambda: holder.update(
            result=fixture.engine.submit(UpdateRequest(
                prepared,
                policy=UpdatePolicy(retry=RetryPolicy(
                    timeout_ms=100, retries=2, backoff=2.0,
                )),
            ))
        ))
        fixture.run(until_ms=3_000)
        result = holder["result"]
        assert_clean_abort(fixture, result, "safepoint", "timeout",
                           rolled_back=False)
        # 100 + 200 + 400 sim-ms of budget across three rounds, all used.
        assert result.retry_rounds == 2
        assert result.rounds_allowed == 3
        assert result.finished_at_ms - result.requested_at_ms >= 700
        assert_old_version_workload_completes(fixture)


class TestRetrySucceeds:
    V1 = """
class Worker {
    static int calls;
    static void busy() {
        int i = 0;
        while (i < 120) { Sys.sleep(5); i = i + 1; }
        calls = calls + 1;
    }
}
class Main {
    static int rounds;
    static void main() {
        Worker.busy();
        while (rounds < 100) { Sys.sleep(10); rounds = rounds + 1; }
    }
}
"""
    V2 = V1.replace("calls = calls + 1;", "calls = calls + 2;")

    def request(self, fixture, retries):
        prepared = fixture.prepare(self.V2)
        holder = {}
        fixture.vm.events.schedule(25, lambda: holder.update(
            result=fixture.engine.submit(UpdateRequest(
                prepared,
                policy=UpdatePolicy(retry=RetryPolicy(
                    timeout_ms=100, retries=retries, backoff=2.0,
                )),
            ))
        ))
        return holder

    def test_backoff_round_outlives_the_blocker(self):
        # busy() runs ~600 sim-ms; the first 100 ms round expires, but the
        # exponential backoff (100+200+400) keeps the update alive until
        # busy() returns, so the *third* round applies it.
        fixture = UpdateFixture(self.V1).start()
        holder = self.request(fixture, retries=3)
        fixture.run(until_ms=5_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert result.retry_rounds == 2
        assert "Worker.busy()V" in result.blockers_seen
        assert fixture.vm.halted is False

    def test_same_update_aborts_without_retries(self):
        fixture = UpdateFixture(self.V1).start()
        holder = self.request(fixture, retries=0)
        fixture.run(until_ms=5_000)
        result = holder["result"]
        assert_clean_abort(fixture, result, "safepoint", "timeout",
                           rolled_back=False)
        assert result.rounds_allowed == 1


class TestClassloadFaults:
    def test_mid_install_failure_rolls_back_metadata(self):
        fixture = inject(
            UpdateFixture(UPDATE_V1),
            FaultPlan(classload_fail_after=0),
        ).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert_clean_abort(fixture, result, "classload", "injected-fault")
        # The rename (Item -> v10_Item) was undone.
        assert fixture.vm.registry.maybe_get("v10_Item") is None
        assert fixture.vm.registry.get("Item").obsolete is False
        assert "v10_Item" not in fixture.vm.classfiles
        assert_old_version_workload_completes(fixture)


class TestOSRFaults:
    # Category-2 pattern from test_dsu_updates: Pump.run is unchanged but
    # bakes Config's static offsets, and never leaves the stack.
    V1 = """
class Config {
    static int level = 1;
}
class Pump {
    static int beats;
    static void run() {
        while (true) {
            Sys.sleep(5);
            beats = beats + Config.level;
            if (beats > 100) { Sys.halt(); }
        }
    }
}
class Main {
    static void main() { Pump.run(); }
}
"""
    V2 = V1.replace(
        "static int level = 1;",
        "static int level = 1; static string name = \"cfg\";",
    )

    def test_osr_failure_aborts_and_old_loop_keeps_beating(self):
        fixture = inject(UpdateFixture(self.V1), FaultPlan(osr_fail=True))
        fixture.start()
        holder = fixture.update_at(20, self.V2, timeout_ms=300)
        fixture.run(until_ms=400)
        result = holder["result"]
        assert_clean_abort(fixture, result, "osr", "injected-fault")
        vm = fixture.vm
        beats_slot = vm.registry.get("Pump").static_slots["beats"]
        before = vm.jtoc.read(beats_slot)
        assert before > 0
        # The new Config metadata was rolled back with everything else.
        assert "name" not in vm.registry.get("Config").static_slots
        fixture.run(until_ms=vm.clock.now_ms + 100)
        assert vm.jtoc.read(beats_slot) > before
        assert vm.halted is False


class TestGCFaults:
    def test_mid_copy_oom_unflips_the_heap(self):
        fixture = inject(
            UpdateFixture(UPDATE_V1),
            FaultPlan(gc_oom_after_copies=10),
        ).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert_clean_abort(fixture, result, "gc", "oom")
        assert "heap exhausted" in result.reason
        assert_old_version_workload_completes(fixture)

    def test_unflipped_heap_survives_a_later_real_collection(self):
        fixture = inject(
            UpdateFixture(UPDATE_V1),
            FaultPlan(gc_oom_after_copies=10),
        ).start()
        fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        vm = fixture.vm
        # The scrubbed from-space must be collectable again: force a real
        # collection and verify the object graph.
        vm.collect()
        assert pool_fields(vm) == ["a", "b"]
        pool = vm.registry.get("Pool")
        array = vm.jtoc.read(pool.static_slots["items"])
        assert vm.objects.array_length(array) == 50


class TestTransformerFaults:
    def test_transformer_exception_rolls_back(self):
        fixture = inject(
            UpdateFixture(UPDATE_V1),
            FaultPlan(transformer_raise_at=5),
        ).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert_clean_abort(fixture, result, "transform", "injected-fault")
        assert result.injected_faults
        assert_old_version_workload_completes(fixture)

    def test_injected_cycle_rolls_back(self):
        fixture = inject(
            UpdateFixture(UPDATE_V1),
            FaultPlan(transformer_cycle_at=3),
        ).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert_clean_abort(fixture, result, "transform", "transformer-cycle")
        assert "cycle" in result.reason
        assert_old_version_workload_completes(fixture)

    def test_update_retried_after_abort_succeeds(self):
        # The rollback leaves the VM fit for a *second* attempt: clear the
        # injector and re-request the same update.
        fixture = inject(
            UpdateFixture(UPDATE_V1),
            FaultPlan(transformer_raise_at=5),
        ).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=200)
        assert holder["result"].status == "aborted"
        fixture.engine.fault_injector = None
        prepared = fixture.prepare(UPDATE_V2)
        second = {}
        fixture.vm.events.schedule(
            fixture.vm.clock.now_ms + 20,
            lambda: second.update(
                result=fixture.engine.submit(UpdateRequest(prepared))
            ),
        )
        fixture.run(until_ms=2_000)
        assert second["result"].succeeded, second["result"].reason
        assert pool_fields(fixture.vm) == ["a", "b", "c"]


class TestServerSurvivesInjectedAbort:
    def test_jetty_keeps_serving_after_mid_install_abort(self):
        from repro.apps.jetty.versions import HTTP_PORT
        from repro.harness.updates import AppDriver, harness_policy
        from repro.net.httpclient import HttpConnectionClient

        driver = AppDriver.for_app("jetty").boot("5.1.1")
        driver.engine.fault_injector = FaultInjector(
            FaultPlan(classload_fail_after=0)
        )
        before = HttpConnectionClient(
            driver.vm, HTTP_PORT, "/file.bin", 2
        ).start(50)
        holder = driver.request_update_at(300, "5.1.2", harness_policy(3_000))
        driver.run(until_ms=4_000)
        result = holder["result"]
        assert result.status == "aborted"
        assert result.failed_phase == "classload"
        assert result.rolled_back
        assert driver.vm.halted is False
        assert before.succeeded, before.failed
        # The old server version still serves new connections after the abort.
        after = HttpConnectionClient(
            driver.vm, HTTP_PORT, "/file.bin", 2
        ).start(driver.vm.clock.now_ms + 50)
        driver.run(until_ms=driver.vm.clock.now_ms + 2_000)
        assert after.succeeded, after.failed
        assert after.statuses == [200, 200]
