"""The update collection is skipped when nothing changes layout, and the
unavoidable one runs behind a to-space sizing pre-flight.

Covers the two halves of the fix:

* an update whose prepared transform map is empty (method-body-only and
  indirect-method updates) must not flip, copy, or touch the collector at
  all — the ``gc`` pause is exactly zero;
* a layout-changing update estimates its to-space demand (live cells plus
  the worst-case double copy of updated-class instances) *before* copying
  anything, and either aborts with an actionable ``heap-preflight`` reason
  or — with ``heap_grow`` — grows the heap in place, in a way the update
  transaction can roll back exactly.
"""

import pytest

from repro.dsu.faults import FaultInjector, FaultPlan
from repro.dsu.policy import UpdatePolicy
from repro.vm.heap import HEAP_BASE, Heap
from tests.dsu_helpers import UpdateFixture
from tests.test_dsu_faults import (
    assert_clean_abort,
    assert_old_version_workload_completes,
    pool_fields,
)
from tests.test_gc_extras import UPDATE_V1, UPDATE_V2

BODY_V1 = """
class Greeter { static string greet() { return "v1"; } }
class Item { int a; }
class Keep { static Item it; }
class Main {
    static int rounds;
    static void main() {
        Keep.it = new Item();
        while (rounds < 60) {
            Sys.print(Greeter.greet());
            Sys.sleep(10);
            rounds = rounds + 1;
        }
    }
}
"""
BODY_V2 = BODY_V1.replace('return "v1";', 'return "v2";')


def kept_item_address(vm):
    keep = vm.registry.get("Keep")
    return vm.jtoc.read(keep.static_slots["it"])


class TestGCSkip:
    def test_body_only_update_skips_the_collection(self):
        fixture = UpdateFixture(BODY_V1).start()
        holder = fixture.update_at(55, BODY_V2)
        fixture.run(until_ms=40)
        vm = fixture.vm
        collections_before = vm.collector.collections
        stats_before = vm.last_gc_stats
        space_before = vm.heap.current_space
        address_before = kept_item_address(vm)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        # The GC phase ran for exactly zero simulated time...
        assert result.phase_ms["gc"] == 0.0
        # ...because no collection happened: no flip, no copy, no stats.
        assert vm.collector.collections == collections_before
        assert vm.last_gc_stats is stats_before
        assert vm.heap.current_space == space_before
        assert kept_item_address(vm) is not None
        assert kept_item_address(vm) == address_before
        assert vm.metrics.counters["dsu.gc_skipped"].value == 1
        # The new code is live regardless.
        fixture.run(until_ms=10_000)
        assert "v2" in fixture.console

    def test_skip_is_marked_in_the_trace(self):
        fixture = UpdateFixture(BODY_V1).start()
        holder = fixture.update_at(55, BODY_V2)
        fixture.run(until_ms=2_000)
        assert holder["result"].succeeded
        tracer = fixture.vm.tracer
        update = next(s for root in tracer.roots for s in root.walk()
                      if s.name == "dsu.update")
        assert update.args["gc_skipped"] is True
        assert update.find("dsu.gc.skipped")
        assert not update.find("gc.collect")

    def test_layout_update_still_collects(self):
        fixture = UpdateFixture(UPDATE_V1, heap_cells=1 << 15).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=40)
        collections_before = fixture.vm.collector.collections
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert result.phase_ms["gc"] > 0.0
        assert fixture.vm.collector.collections == collections_before + 1
        assert result.objects_transformed == 50
        assert "dsu.gc_skipped" not in fixture.vm.metrics.counters


class TestPreflightAbort:
    def test_abort_reason_is_actionable(self):
        fixture = UpdateFixture(UPDATE_V1, heap_cells=900).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert_clean_abort(fixture, result, "gc", "heap-preflight")
        # Estimated vs available cells and a suggested minimum heap size.
        assert "to-space cells" in result.reason
        assert "available" in result.reason
        assert "--dsu-heap-grow" in result.reason
        assert "at least" in result.reason and "--heap-cells" in result.reason
        assert_old_version_workload_completes(fixture)

    def test_suggested_heap_size_actually_works(self):
        fixture = UpdateFixture(UPDATE_V1, heap_cells=900).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        reason = holder["result"].reason
        suggested = int(
            reason.split("at least ")[1].split(" cells")[0]
        )
        retry = UpdateFixture(UPDATE_V1, heap_cells=suggested).start()
        retry_holder = retry.update_at(55, UPDATE_V2)
        retry.run(until_ms=2_000)
        assert retry_holder["result"].succeeded, retry_holder["result"].reason

    def test_a_lazy_update_lands_where_the_preflight_refuses(self):
        # The same undersized heap: a lazy update runs no update
        # collection, so it lands at 900 cells without growing.
        fixture = UpdateFixture(UPDATE_V1, heap_cells=900).start()
        holder = fixture.update_at(55, UPDATE_V2,
                                   policy=UpdatePolicy(transform="lazy"))
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        fixture.engine.drain_lazy_epoch()
        assert fixture.vm.heap.size == 900
        assert pool_fields(fixture.vm) == ["a", "b", "c"]

    def test_mid_copy_injected_oom_still_aborts_cleanly(self):
        # The pre-flight passes (plenty of headroom) but a fault injector
        # blows the copy loop up mid-way: the old mid-copy abort path must
        # still roll back and classify as plain oom, not heap-preflight.
        fixture = UpdateFixture(UPDATE_V1)
        fixture.engine.fault_injector = FaultInjector(
            FaultPlan(gc_oom_after_copies=5)
        )
        fixture.start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        assert_clean_abort(fixture, holder["result"], "gc", "oom")
        assert_old_version_workload_completes(fixture)


class TestHeapGrow:
    #: every update in this class opts into in-place growth at the
    #: policy level (the engine-wide kwarg is a deprecated shim now)
    GROW = UpdatePolicy(heap_grow=True)

    def grown_fixture(self):
        fixture = UpdateFixture(UPDATE_V1, heap_cells=900)
        return fixture.start()

    def test_undersized_update_succeeds_by_growing(self):
        fixture = self.grown_fixture()
        holder = fixture.update_at(55, UPDATE_V2, policy=self.GROW)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        vm = fixture.vm
        assert vm.heap.size > 900
        assert len(vm.heap.cells) == vm.heap.size
        # Equal-semispace invariant holds after growth.
        bounds = vm.heap._space_bounds
        assert bounds[0][1] - bounds[0][0] == bounds[1][1] - bounds[1][0]
        assert pool_fields(vm) == ["a", "b", "c"]
        assert vm.metrics.counters["dsu.heap_grown"].value == 1
        # The grown heap keeps working: run to completion, then collect.
        fixture.run(until_ms=10_000)
        vm.collect()
        assert pool_fields(vm) == ["a", "b", "c"]

    def test_growth_from_high_semispace_normalizes_first(self):
        fixture = self.grown_fixture()
        fixture.run(until_ms=40)
        vm = fixture.vm
        vm.collect()  # live data now sits in the high semispace
        assert vm.heap.current_space == 1
        old_size = vm.heap.size
        holder = fixture.update_at(55, UPDATE_V2, policy=self.GROW)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        # The normalize path pins the new halfway point past the old heap
        # end, so the grown heap is at least twice the old size.
        assert vm.heap.size >= 2 * old_size
        assert pool_fields(vm) == ["a", "b", "c"]

    def test_growth_rolls_back_with_the_transaction(self):
        fixture = self.grown_fixture()
        fixture.engine.fault_injector = FaultInjector(
            FaultPlan(transformer_raise_at=0)
        )
        fixture.run(until_ms=40)
        vm = fixture.vm
        size_before = vm.heap.size
        cells_before = len(vm.heap.cells)
        bounds_before = vm.heap._space_bounds
        space_before = vm.heap.current_space
        holder = fixture.update_at(55, UPDATE_V2, policy=self.GROW)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert_clean_abort(fixture, result, "transform", "injected-fault")
        # The in-place growth was undone: pre-update geometry, exactly.
        assert vm.heap.size == size_before == 900
        assert len(vm.heap.cells) == cells_before
        assert vm.heap._space_bounds == bounds_before
        assert vm.heap.current_space == space_before
        assert_old_version_workload_completes(fixture)

    def test_growth_rollback_from_high_semispace(self):
        # The hardest rollback: snapshot taken with live data in the high
        # space, growth normalizes to the low space first, the update GC
        # copies into the appended region, then a transformer fault forces
        # the whole thing — normalize included — to unwind.
        fixture = self.grown_fixture()
        fixture.engine.fault_injector = FaultInjector(
            FaultPlan(transformer_raise_at=0)
        )
        fixture.run(until_ms=40)
        vm = fixture.vm
        vm.collect()
        assert vm.heap.current_space == 1
        size_before = vm.heap.size
        holder = fixture.update_at(55, UPDATE_V2, policy=self.GROW)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert_clean_abort(fixture, result, "transform", "injected-fault")
        assert vm.heap.size == size_before
        assert vm.heap.current_space == 1
        assert_old_version_workload_completes(fixture)


class TestHeapGrowUnit:
    def test_grow_preserves_contents_and_invariants(self):
        heap = Heap(400)
        address = heap.allocate_raw(8)
        for i in range(8):
            heap.write(address + i, 100 + i)
        used = heap.used_cells
        heap.grow(1000)
        assert heap.size == 1000
        assert len(heap.cells) == 1000
        assert heap.used_cells == used
        assert [heap.read(address + i) for i in range(8)] == list(range(100, 108))
        start0, end0 = heap._space_bounds[0]
        start1, end1 = heap._space_bounds[1]
        assert (start0, start1) == (HEAP_BASE, 500 + HEAP_BASE)
        assert end0 - start0 == end1 - start1 == heap.semispace_capacity
        assert heap.ceiling == heap.space_end

    def test_grow_rounds_odd_sizes_up(self):
        heap = Heap(400)
        heap.grow(1001)
        assert heap.size == 1002

    def test_grow_refuses_shrink(self):
        heap = Heap(400)
        with pytest.raises(ValueError, match="cannot grow"):
            heap.grow(400)

    def test_grow_refuses_high_semispace(self):
        heap = Heap(400)
        heap.current_space = 1
        heap.bump = heap.space_start
        heap.ceiling = heap.space_end
        with pytest.raises(ValueError, match="low semispace"):
            heap.grow(1000)
