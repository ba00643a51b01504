"""The one update pipeline: every apply mode is a row of
``engine.UPDATE_MODES`` run by a single transaction driver, so the trace,
``phase_ms`` and the failure path of each mode can be read off the table.

Also the two stream bugs the driver's single entry point fixes: a submit
onto an open ``hold_transaction`` window is refused, and the drain a
back-to-back lazy update forces is charged to the update that forced it.
"""

import pytest

from repro.dsu.engine import (
    ABORTED,
    MODE_BYPASS,
    MODE_EAGER,
    MODE_LAZY,
    MODE_OSR_RESCUE,
    UPDATE_MODES,
    UpdateRequest,
)
from repro.dsu.faults import FaultInjector, FaultPlan
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.dsu.transaction import SCOPE_CODE_ONLY, SCOPE_FULL
from repro.vm.machinecode import MethodEntry
from tests.dsu_helpers import UpdateFixture
from tests.test_confree import BASE, BASE_V2
from tests.test_lazy_transform import SLEEPY_V1, SLEEPY_V2, disable_sweep
from tests.test_osr_rescue import SPIN_V1, SPIN_V2

RETRY = RetryPolicy(timeout_ms=5_000.0)

# The spinner plus one layout change, so the rescued update installs a class.
RESCUE_V1 = SPIN_V1 + "class Extra { int x; }\n"
RESCUE_V2 = SPIN_V2 + "class Extra { int x; int y; }\n"

#: mode -> (v1 source, v2 source, policy that lands the update in that mode)
SCENARIOS = {
    MODE_EAGER: (SLEEPY_V1, SLEEPY_V2, UpdatePolicy(retry=RETRY)),
    MODE_LAZY: (SLEEPY_V1, SLEEPY_V2,
                UpdatePolicy(retry=RETRY, transform="lazy")),
    MODE_OSR_RESCUE: (RESCUE_V1, RESCUE_V2,
                      UpdatePolicy(retry=RetryPolicy(timeout_ms=60.0),
                                   inloop_osr="auto")),
    MODE_BYPASS: (BASE, BASE_V2, UpdatePolicy(retry=RETRY, bypass="auto")),
}

PHASE_SPANS = {
    phase.span
    for _scope, phases in UPDATE_MODES.values()
    for phase in phases
    if phase.span is not None
}


def run_mode(mode, policy=None, plan=None):
    v1, v2, default_policy = SCENARIOS[mode]
    fixture = UpdateFixture(v1).start()
    fixture.run(until_ms=60)
    if plan is not None:
        fixture.engine.fault_injector = FaultInjector(plan)
    holder = fixture.update_at(100, v2, policy=policy or default_policy)
    fixture.run(until_ms=1_500)
    return fixture, holder["result"]


def update_spans(vm):
    return [
        span for root in vm.tracer.roots for span in root.walk()
        if span.name == "dsu.update"
    ]


def child(span, name):
    found = [c for c in span.children if c.name == name]
    assert len(found) == 1, (name, [c.name for c in span.children])
    return found[0]


class TestModesAreRowsOfOneTable:
    def test_the_table_has_exactly_the_four_modes(self):
        assert set(UPDATE_MODES) == {
            MODE_EAGER, MODE_LAZY, MODE_OSR_RESCUE, MODE_BYPASS
        }
        assert UPDATE_MODES[MODE_BYPASS][0] == SCOPE_CODE_ONLY
        for mode in (MODE_EAGER, MODE_LAZY, MODE_OSR_RESCUE):
            assert UPDATE_MODES[mode][0] == SCOPE_FULL

    @pytest.mark.parametrize("mode", sorted(SCENARIOS))
    def test_trace_and_phase_ms_follow_the_mode_row(self, mode):
        fixture, result = run_mode(mode)
        assert result.succeeded, result.reason
        _scope, phases = UPDATE_MODES[mode]
        (update,) = update_spans(fixture.vm)
        assert update.args["status"] == "applied"
        assert update.args["mode"] == mode
        ran = [c.name for c in update.children if c.name in PHASE_SPANS]
        assert ran == [p.span for p in phases if p.span is not None]
        assert list(result.phase_ms) == [
            p.key for p in phases if p.key is not None
        ]
        assert result.bypassed == (mode == MODE_BYPASS)
        assert result.osr_rescued == (mode == MODE_OSR_RESCUE)
        assert result.transform_mode == (
            "" if mode == MODE_BYPASS else SCENARIOS[mode][2].transform
        )
        fixture.engine.drain_lazy_epoch()

    @pytest.mark.parametrize("mode", sorted(SCENARIOS))
    def test_install_failure_takes_the_single_abort_path(
        self, mode, monkeypatch
    ):
        scope, phases = UPDATE_MODES[mode]
        if mode == MODE_BYPASS:
            # The bypass install consults no fault-injector hook: break
            # the one primitive it is made of instead.
            def refuse(self, info):
                raise RuntimeError("injected body-install failure")

            monkeypatch.setattr(MethodEntry, "replace_bytecode", refuse)
            fixture, result = run_mode(mode)
            reason_code = "classload-failed"
        else:
            assert "on_class_installed" in phases[1].faults
            fixture, result = run_mode(
                mode, plan=FaultPlan(classload_fail_after=0)
            )
            reason_code = "injected-fault"
        monkeypatch.undo()
        assert result.status == ABORTED
        assert (result.failed_phase, result.reason_code) == (
            "classload", reason_code
        )
        assert result.rolled_back
        assert not result.osr_rescued and result.extended_osr_frames == 0
        assert result.transaction is None and result.transform_mode == ""
        # Only the phases that finished before the failure are accounted.
        assert list(result.phase_ms) == [
            p.key for p in phases[:1] if p.key is not None
        ]
        (update,) = update_spans(fixture.vm)
        assert update.args["status"] == "aborted"
        assert update.args["failed_phase"] == "classload"
        assert update.args["rolled_back"] is True
        rollback = child(update, "dsu.rollback")
        assert rollback.args["scope"] == scope
        counters = fixture.vm.metrics.counters
        assert counters["dsu.rollbacks"].value == 1
        assert counters["dsu.updates_aborted"].value == 1
        assert "dsu.updates_applied" not in counters
        # The engine is idle again and the old version keeps running.
        assert fixture.engine.active is None
        assert fixture.engine.lazy_epoch is None
        assert not fixture.vm.update_pending
        fixture.run(until_ms=3_000)
        assert fixture.vm.trap_log == []
        assert any("v1" in line for line in fixture.console)
        assert not any("v2" in line for line in fixture.console)


HOLD = {
    "eager": UpdatePolicy(retry=RETRY, hold_transaction=True),
    "lazy": UpdatePolicy(retry=RETRY, transform="lazy",
                         hold_transaction=True),
}
SLEEPY_V3 = SLEEPY_V2.replace(
    "class Item { int a; int b; int c; }",
    "class Item { int a; int b; int c; int d; }",
).replace('return "v2";', 'return "v3";')


class TestHeldWindowRefusesASecondUpdate:
    def held(self, transform):
        fixture = UpdateFixture(SLEEPY_V1).start()
        holder = fixture.update_at(55, SLEEPY_V2, policy=HOLD[transform])
        fixture.run(until_ms=120)
        first = holder["result"]
        assert first.succeeded and first.transaction is not None
        assert (first.lazy_epoch is not None) == (transform == "lazy")
        return fixture, first

    def second_request(self, fixture, source, version):
        return UpdateRequest(fixture.prepare(source, version),
                             policy=UpdatePolicy(retry=RETRY))

    @pytest.mark.parametrize("transform", ["eager", "lazy"])
    def test_submit_is_refused_while_the_window_is_open(self, transform):
        fixture, first = self.held(transform)
        request = self.second_request(fixture, SLEEPY_V3, "3.0")
        history = list(fixture.engine.history)
        with pytest.raises(RuntimeError, match="already in progress"):
            fixture.engine.submit(request)
        # Refused up front: nothing recorded, nothing signalled, and the
        # held snapshot (and the lazy epoch behind it) is untouched.
        assert fixture.engine.history == history
        assert fixture.engine.active is None
        assert not fixture.vm.update_pending
        assert first.transaction is not None
        assert (fixture.engine.lazy_epoch is not None) == (transform == "lazy")

    @pytest.mark.parametrize("transform", ["eager", "lazy"])
    def test_submit_is_accepted_again_after_commit(self, transform):
        fixture, first = self.held(transform)
        fixture.engine.commit_applied(first)
        fixture.current_version = "2.0"
        request = self.second_request(fixture, SLEEPY_V3, "3.0")
        second = fixture.engine.submit(request)
        fixture.run(until_ms=400)
        assert second.succeeded, second.reason
        fixture.run(until_ms=3_000)
        assert fixture.console == ["sum:820:v3"]

    @pytest.mark.parametrize("transform", ["eager", "lazy"])
    def test_submit_is_accepted_again_after_rollback(self, transform):
        fixture, first = self.held(transform)
        fixture.engine.rollback_applied(first)
        fixture.current_version = "1.0"
        # Back on 1.0: the same 1.0 -> 2.0 update applies afresh.
        request = self.second_request(fixture, SLEEPY_V2, "2.0")
        second = fixture.engine.submit(request)
        fixture.run(until_ms=400)
        assert second.succeeded, second.reason
        assert second is not first
        fixture.run(until_ms=3_000)
        assert fixture.console == ["sum:820:v2"]


class TestForcedDrainBelongsToTheUpdateThatForcedIt:
    def test_back_to_back_lazy_updates(self):
        lazy = UpdatePolicy(retry=RETRY, transform="lazy")
        fixture = UpdateFixture(SLEEPY_V1).start()
        disable_sweep(fixture)  # keep the first epoch open
        holder = fixture.update_at(55, SLEEPY_V2, policy=lazy)
        fixture.run(until_ms=120)
        first = holder["result"]
        assert first.succeeded
        epoch = fixture.engine.lazy_epoch
        assert epoch is not None and epoch.transformed == 0
        fixture.current_version = "2.0"

        vm = fixture.vm
        before_ms = vm.clock.now_ms
        request = UpdateRequest(fixture.prepare(SLEEPY_V3, "3.0"), policy=lazy)
        second = fixture.engine.submit(request)
        drain_ms = vm.clock.now_ms - before_ms
        # The O(heap) drain happened synchronously inside submit()...
        assert epoch.closed and epoch.sweep_transforms == 40
        assert drain_ms > 0.0
        # ...after the request was stamped, so the result accounts for it
        assert second.requested_at_ms == before_ms
        fixture.run(until_ms=400)
        assert second.succeeded, second.reason
        assert second.safepoint_wait_ms == pytest.approx(drain_ms)
        # ...and as a child of the second update's span, not a trace root.
        first_span, second_span = update_spans(vm)
        assert [c.name for c in first_span.children].count(
            "dsu.lazy.sweep") == 0
        drain = child(second_span, "dsu.lazy.sweep")
        assert second_span.children[0] is drain
        assert drain.args["mode"] == "drain"
        assert drain.args["transformed"] == 40 and drain.args["drained"]
        assert drain.duration_ms == pytest.approx(drain_ms)
        assert not any(
            root.name == "dsu.lazy.sweep" for root in vm.tracer.roots
        )
        fixture.engine.drain_lazy_epoch()
        fixture.run(until_ms=3_000)
        assert fixture.console == ["sum:820:v3"]


class TestOnePreparedUpdateManyVMs:
    def test_a_prepared_update_applies_to_a_second_vm(self):
        # Retiring the transformer class after the first apply used to
        # rename the prepared update's own class file, so the second VM
        # failed to verify the renamed class (classload-failed).
        from repro.harness.lazyheap import heap_fingerprint
        from tests.test_gc_extras import UPDATE_V1, UPDATE_V2

        fixtures = [UpdateFixture(UPDATE_V1).start() for _ in range(2)]
        prepared = fixtures[0].prepare(UPDATE_V2)
        request = UpdateRequest(prepared, policy=UpdatePolicy(retry=RETRY))
        results = []
        for fixture in fixtures:
            fixture.vm.events.schedule(
                55, lambda engine=fixture.engine:
                results.append(engine.submit(request))
            )
            fixture.run(until_ms=1_000)
        assert [result.status for result in results] == ["applied", "applied"]
        assert results[0].objects_transformed == 50
        first, second = (heap_fingerprint(f.vm) for f in fixtures)
        assert first == second

    def test_retiring_the_transformers_leaves_the_prepared_class_file(self):
        from tests.test_gc_extras import UPDATE_V1, UPDATE_V2

        fixture = UpdateFixture(UPDATE_V1).start()
        prepared = fixture.prepare(UPDATE_V2)
        names = {
            name: classfile.name
            for name, classfile in prepared.transformer_classfiles.items()
        }
        request = UpdateRequest(prepared, policy=UpdatePolicy(retry=RETRY))
        results = []
        fixture.vm.events.schedule(
            55, lambda: results.append(fixture.engine.submit(request))
        )
        fixture.run(until_ms=1_000)
        assert [result.status for result in results] == ["applied"]
        assert names and all(
            prepared.transformer_classfiles[name].name == name == original
            for name, original in names.items()
        )
        for name in names:
            assert fixture.vm.registry.maybe_get(name) is None
            (retired,) = [
                cls for cls in fixture.vm.classfiles
                if cls.startswith(f"{name}_")
            ]
            assert fixture.vm.classfiles[retired].name == retired
            rvmclass = fixture.vm.registry.maybe_get(retired)
            assert rvmclass.obsolete
            assert rvmclass.classfile is fixture.vm.classfiles[retired]
