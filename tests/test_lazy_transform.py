"""The lazy transformation mode: on-first-touch read barrier, idle-time
sweep, epoch close (forced forwarding-collapse collection), interaction
with GC and in-loop OSR rescue, and a mid-epoch rollback by reverse update.

The programs are built so the interesting path is forced:

* busy loops (no ``Sys.sleep``) never idle, so the sweep cannot run and
  every transform must come from the read barrier;
* sleepy loops idle constantly, so the sweep drains the epoch in the
  background while the app never touches the pending objects;
* a quiescent app (sleeping, touching nothing) keeps its state frozen,
  so the heap after a rollback compares with the heap before the update.
"""

from hypothesis import given, settings, strategies as st

from repro.dsu.engine import UpdateRequest
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.harness.lazyheap import heap_fingerprint
from repro.vm.heap import HEADER_STATUS, HEADER_TIB
from tests.dsu_helpers import UpdateFixture

LAZY = UpdatePolicy(retry=RetryPolicy(timeout_ms=5_000.0), transform="lazy")

# Busy: main never sleeps, so there is no idle slice and no sweep; the
# only way an Item ever gets transformed is the read/write barrier in
# Pool.get / Pool.put. main itself never names Item (it would bake the
# old layout and become restricted, blocking the safe point forever).
BUSY_V1 = """
class Item { int a; int b; }
class Pool {
    static Item it;
    static void init() { Pool.it = new Item(); Pool.it.a = 5; }
    static int get() { return Pool.it.a; }
    static void put(int v) { Pool.it.b = v; }
    static string tag() { return "v1"; }
}
class Main {
    static int rounds;
    static int sum;
    static void main() {
        Pool.init();
        while (rounds < 50000) {
            sum = sum + Pool.get();
            Pool.put(sum);
            rounds = rounds + 1;
        }
        Sys.print("sum:" + sum + ":" + Pool.tag());
    }
}
"""
BUSY_V2 = BUSY_V1.replace(
    "class Item { int a; int b; }",
    "class Item { int a; int b; int c; }",
).replace('return "v1";', 'return "v2";')

# Sleepy: main allocates a pool of Items behind a helper and then only
# sleeps — the idle sweep does all the transforming.
SLEEPY_V1 = """
class Item { int a; int b; }
class Pool {
    static Item[] items;
    static int count;
    static void fill(int n) {
        Pool.count = n;
        Pool.items = new Item[n];
        for (int i = 0; i < n; i = i + 1) {
            Pool.items[i] = new Item();
            Pool.items[i].a = i + 1;
        }
    }
    static int checksum() {
        int total = 0;
        for (int i = 0; i < Pool.count; i = i + 1) {
            total = total + Pool.items[i].a;
        }
        return total;
    }
    static string tag() { return "v1"; }
}
class Main {
    static int rounds;
    static void main() {
        Pool.fill(40);
        while (rounds < 120) { Sys.sleep(10); rounds = rounds + 1; }
        Sys.print("sum:" + Pool.checksum() + ":" + Pool.tag());
    }
}
"""
SLEEPY_V2 = SLEEPY_V1.replace(
    "class Item { int a; int b; }",
    "class Item { int a; int b; int c; }",
).replace('return "v1";', 'return "v2";')


def lazy_update(fixture, at_ms, v2_source, policy=LAZY, **kwargs):
    return fixture.update_at(at_ms, v2_source, policy=policy, **kwargs)


def find_instant(vm, name):
    for root in vm.tracer.roots:
        for span in root.walk():
            if span.name == name:
                return span
    return None


def disable_sweep(fixture):
    """Keep the barrier but never let the background sweep run, so tests
    control draining explicitly via drain_lazy_epoch(max_objects=...).

    The epoch installs its sweep as ``vm.idle_work_hook`` when the apply
    commits, which happens inside the engine's world-stopped callback:
    chain that callback and take the idle hook back down after it."""
    vm = fixture.vm
    engine_world_stopped = vm.on_world_stopped

    def world_stopped_without_idle_sweep():
        engine_world_stopped()
        vm.idle_work_hook = None

    vm.on_world_stopped = world_stopped_without_idle_sweep


class TestLazyBarrier:
    def run_busy(self, policy=LAZY):
        fixture = UpdateFixture(BUSY_V1, heap_cells=1 << 15).start()
        holder = lazy_update(fixture, 1.0, BUSY_V2)
        fixture.run(until_ms=60_000, max_instructions=100_000_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        return fixture, result

    def test_touch_transform_supplies_correct_fields_both_ways(self):
        fixture, result = self.run_busy()
        # 50k iterations of a=5, reads and writes both healed through the
        # barrier, and the final tag proves the new code ran.
        assert fixture.console == ["sum:250000:v2"]
        assert result.transform_mode == "lazy"
        counters = fixture.vm.metrics.counters
        assert counters["dsu.lazy.touch_transforms"].value == 1
        assert counters["dsu.lazy.epochs_opened"].value == 1

    def test_lazy_pause_excludes_per_object_work_and_gc(self):
        fixture, result = self.run_busy()
        # No update collection and no per-object transformer ran inside
        # the pause (class transformers still do — they scale with the
        # number of changed classes, not the heap).
        assert result.phase_ms["gc"] == 0.0
        assert result.objects_transformed == 0
        # The pause still exists (suspension + classload), it just no
        # longer contains per-object work.
        assert result.total_pause_ms > 0.0
        assert fixture.vm.metrics.counters["dsu.gc_deferred"].value == 1

    def test_old_shell_keeps_its_field_image_and_forwarding(self):
        # Mid-epoch (sweep disabled), the old shell must keep its exact
        # pre-update cells — only its status header may change.
        fixture = UpdateFixture(BUSY_V1, heap_cells=1 << 15).start()
        disable_sweep(fixture)
        holder = lazy_update(fixture, 1.0, BUSY_V2)
        fixture.run(until_ms=60_000, max_instructions=100_000_000)
        assert holder["result"].succeeded
        vm = fixture.vm
        epoch = fixture.engine.lazy_epoch
        assert epoch is not None and not epoch.closed
        pool = vm.registry.get("Pool")
        old_address = vm.jtoc.read(pool.static_slots["it"])
        heap = vm.heap
        status = heap.cells[old_address + HEADER_STATUS]
        # Statics were never healed: they still point at the old shell,
        # which carries a same-space forwarding pointer...
        assert status != 0 and heap.in_space(status, heap.current_space)
        # ...whose class id is still the renamed old Item...
        old_class = vm.registry.by_class_id(heap.cells[old_address + HEADER_TIB])
        assert old_class.name.endswith("Item") and old_class.name != "Item"
        # ...and whose field image is untouched (a=5; b kept its last
        # pre-update value, later writes went to the transformed copy).
        assert heap.cells[old_address + 2] == 5
        new_address = status
        new_class = vm.registry.by_class_id(heap.cells[new_address + HEADER_TIB])
        assert new_class.name == "Item"
        # Drain to close; the closing collection collapses the forwarding.
        fixture.engine.drain_lazy_epoch()
        assert fixture.engine.lazy_epoch is None
        healed = vm.jtoc.read(vm.registry.get("Pool").static_slots["it"])
        assert vm.registry.by_class_id(
            vm.heap.cells[healed + HEADER_TIB]
        ).name == "Item"

    def test_epoch_close_collapses_forwarding_with_a_collection(self):
        fixture, result = self.run_busy()
        vm = fixture.vm
        assert fixture.engine.lazy_epoch is None
        assert vm.metrics.counters["dsu.lazy.epochs_closed"].value == 1
        # The close forced a collection: no reachable status word may
        # still carry same-space forwarding afterwards.
        heap = vm.heap
        address = heap.space_start
        while address < heap.bump:
            status = heap.cells[address + HEADER_STATUS]
            assert status == 0, f"stale forwarding at {address}"
            address += vm.objects.object_size_cells(address)

    def test_sweep_drains_without_touches(self):
        fixture = UpdateFixture(SLEEPY_V1, heap_cells=1 << 15).start()
        holder = lazy_update(fixture, 55, SLEEPY_V2)
        fixture.run(until_ms=5_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        # All 40 Items were swept in idle slices, none on touch (the app
        # only sleeps during the epoch), and the checksum survives.
        assert fixture.console == ["sum:820:v2"]
        counters = fixture.vm.metrics.counters
        assert counters["dsu.lazy.sweep_transforms"].value == 40
        assert "dsu.lazy.touch_transforms" not in counters
        drained = find_instant(fixture.vm, "dsu.lazy.epoch-drained")
        assert drained is not None
        assert drained.args["sweep_transforms"] == 40
        assert drained.args["transformed"] == 40

    def test_pending_upper_bound_reported(self):
        fixture = UpdateFixture(SLEEPY_V1, heap_cells=1 << 15).start()
        holder = lazy_update(fixture, 55, SLEEPY_V2)
        fixture.run(until_ms=5_000)
        assert holder["result"].lazy_pending_upper >= 40


REFEQ_V1 = """
class Item { int a; Item self() { return this; } }
class Pool {
    static Item x;
    static Item y;
    static void init() { Pool.x = new Item(); Pool.x.a = 3; }
    static int probe() { return Pool.x.a; }
    static void alias() { Pool.y = Pool.x.self(); }
    static int same() { if (Pool.x == Pool.y) { return 1; } return 0; }
    static string tag() { return "v1"; }
}
class Main {
    static int rounds;
    static int sum;
    static void main() {
        Pool.init();
        while (rounds < 50000) {
            sum = sum + Pool.probe();
            rounds = rounds + 1;
        }
        Pool.alias();
        Sys.print("same:" + Pool.same() + ":" + Pool.tag());
    }
}
"""
REFEQ_V2 = REFEQ_V1.replace(
    "class Item { int a;", "class Item { int a; int pad;"
).replace('return "v1";', 'return "v2";')


class TestIdentityAndDispatch:
    def test_ref_eq_heals_across_the_transform(self):
        # After the update, Pool.x still holds the old-shell address
        # (statics are never healed mid-epoch) while Pool.y receives the
        # transformed copy's address out of the virtual call's healed
        # receiver. Identity comparison must chase the forwarding on both
        # operands and report them equal.
        fixture = UpdateFixture(REFEQ_V1, heap_cells=1 << 15).start()
        disable_sweep(fixture)
        holder = lazy_update(fixture, 1.0, REFEQ_V2)
        fixture.run(until_ms=60_000, max_instructions=100_000_000)
        assert holder["result"].succeeded
        assert fixture.console == ["same:1:v2"]
        epoch = fixture.engine.lazy_epoch
        assert epoch is not None and epoch.heals >= 1
        fixture.engine.drain_lazy_epoch()

    def test_invokevirtual_transforms_the_receiver(self):
        # Pool.alias()'s INVOKEVIRTUAL is the FIRST touch of the pending
        # Item (the spin between init and alias never dereferences it):
        # the receiver barrier must transform before dispatching through
        # the (invalidated) old TIB.
        source = REFEQ_V1.replace("sum + Pool.probe()", "sum + 1")
        v2 = REFEQ_V2.replace("sum + Pool.probe()", "sum + 1")
        fixture = UpdateFixture(source, heap_cells=1 << 15).start()
        disable_sweep(fixture)
        holder = lazy_update(fixture, 1.0, v2)
        fixture.run(until_ms=60_000, max_instructions=100_000_000)
        assert holder["result"].succeeded
        assert fixture.console == ["same:1:v2"]
        assert (
            fixture.vm.metrics.counters["dsu.lazy.touch_transforms"].value >= 1
        )
        fixture.engine.drain_lazy_epoch()


# A chain where the second object is referenced only from the first one's
# old shell mid-epoch: heap cells are never healed, so after Head is
# transformed, Tail is reachable only through addresses that predate the
# epoch. The barrier must still find and transform it on dereference.
CHAIN_V1 = """
class Tail { int x; }
class Head { Tail next; }
class Pool {
    static Head head;
    static void init() {
        Pool.head = new Head();
        Pool.head.next = new Tail();
        Pool.head.next.x = 9;
    }
    static int deep() { return Pool.head.next.x; }
    static string tag() { return "v1"; }
}
class Main {
    static int rounds;
    static int sum;
    static void main() {
        Pool.init();
        while (rounds < 30000) {
            sum = sum + Pool.deep();
            rounds = rounds + 1;
        }
        Sys.print("sum:" + sum + ":" + Pool.tag());
    }
}
"""
CHAIN_V2 = CHAIN_V1.replace(
    "class Tail { int x; }", "class Tail { int x; int pad; }"
).replace(
    "class Head { Tail next; }", "class Head { Tail next; int pad; }"
).replace('return "v1";', 'return "v2";')


class TestPendingChains:
    def test_object_referenced_only_through_a_pending_shell(self):
        fixture = UpdateFixture(CHAIN_V1, heap_cells=1 << 15).start()
        disable_sweep(fixture)
        holder = lazy_update(fixture, 1.0, CHAIN_V2)
        fixture.run(until_ms=60_000, max_instructions=100_000_000)
        assert holder["result"].succeeded
        assert fixture.console == ["sum:270000:v2"]
        # Both links of the chain were transformed by touch alone.
        assert (
            fixture.vm.metrics.counters["dsu.lazy.touch_transforms"].value == 2
        )
        fixture.engine.drain_lazy_epoch()

    def test_collection_mid_epoch_preserves_the_chain(self):
        fixture = UpdateFixture(CHAIN_V1, heap_cells=1 << 15).start()
        disable_sweep(fixture)
        holder = lazy_update(fixture, 1.0, CHAIN_V2)
        fixture.run(until_ms=2.0, max_instructions=100_000_000)
        assert holder["result"].succeeded
        vm = fixture.vm
        epoch = fixture.engine.lazy_epoch
        assert epoch is not None
        # Force an ordinary collection mid-epoch: forwarding collapses,
        # every root heals, the sweep cursor restarts in the new space.
        collections_before = vm.collector.collections
        vm.collect()
        assert vm.collector.collections == collections_before + 1
        fixture.run(until_ms=60_000, max_instructions=100_000_000)
        assert fixture.console == ["sum:270000:v2"]
        fixture.engine.drain_lazy_epoch()
        assert fixture.engine.lazy_epoch is None


# In-loop OSR rescue + lazy: the spinning frame is rescued onto the new
# loop body, which then touches a changed-class object through the
# barrier — both "never reaches a safe point" and "pause must not scale
# with the heap" at once.
SPIN_ITEM_V1 = """
class Item { int x; }
class Loop {
    static int n;
    static Item it;
    static void spin() {
        while (true) {
            Sys.sleep(5);
            n = n + 1;
            if (n >= 120) {
                Sys.print("done:" + n + ":" + Loop.probe() + ":" + Loop.tag());
                Sys.halt();
            }
        }
    }
    static int probe() { return Loop.it.x; }
    static string tag() { return "v1"; }
}
class Main {
    static void main() {
        Loop.it = new Item();
        Loop.it.x = 7;
        Loop.spin();
    }
}
"""
SPIN_ITEM_V2 = SPIN_ITEM_V1.replace(
    "n = n + 1;", "n = n + 2;\n            n = n - 1;"
).replace(
    "class Item { int x; }", "class Item { int x; int pad; }"
).replace('return "v1";', 'return "v2";')


class TestLazyWithInloopOsr:
    def test_barrier_fires_inside_a_rescued_frame(self):
        fixture = UpdateFixture(SPIN_ITEM_V1, heap_cells=1 << 15).start()
        fixture.run(until_ms=60)
        policy = UpdatePolicy(
            retry=RetryPolicy(timeout_ms=60.0),
            inloop_osr="auto",
            transform="lazy",
        )
        holder = lazy_update(fixture, 100.0, SPIN_ITEM_V2, policy=policy)
        fixture.run(until_ms=5_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert result.osr_rescued
        assert result.transform_mode == "lazy"
        # The rescued run finishes with the new tag, the same count, and
        # the Item's value read through the epoch machinery.
        assert fixture.console == ["done:120:7:v2"]
        assert fixture.vm.metrics.counters["dsu.lazy.epochs_closed"].value == 1


class TestDifferentialVsEager:
    def run_mode(self, transform):
        fixture = UpdateFixture(SLEEPY_V1, heap_cells=1 << 15).start()
        policy = UpdatePolicy(
            retry=RetryPolicy(timeout_ms=5_000.0), transform=transform
        )
        holder = lazy_update(fixture, 55, SLEEPY_V2, policy=policy)
        fixture.run(until_ms=5_000)
        assert holder["result"].succeeded, holder["result"].reason
        return fixture

    def test_lazy_and_eager_end_in_the_same_observable_state(self):
        eager = self.run_mode("eager")
        lazy = self.run_mode("lazy")
        assert eager.console == lazy.console
        # Post-drain, post-collection heaps agree on the surviving Items.
        for fixture in (eager, lazy):
            fixture.engine.drain_lazy_epoch()
            fixture.vm.collect()

        def items(fixture):
            vm = fixture.vm
            pool = vm.registry.get("Pool")
            array = vm.jtoc.read(pool.static_slots["items"])
            return [
                [
                    vm.heap.cells[vm.objects.array_get(array, i) + offset]
                    for offset in (2, 3, 4)  # fields a, b, c
                ]
                for i in range(vm.objects.array_length(array))
            ]

        assert items(eager) == items(lazy)


class TestMidSweepRollback:
    """Rolling back a lazy update mid-sweep is the reverse update: its
    submit drains the open epoch, then it applies like any other."""

    @given(
        n=st.integers(min_value=1, max_value=16),
        budget=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=8, deadline=None)
    def test_rollback_exactness_property(self, n, budget):
        v1 = SLEEPY_V1.replace("Pool.fill(40)", f"Pool.fill({n})")
        v2 = SLEEPY_V2.replace("Pool.fill(40)", f"Pool.fill({n})")
        fixture = UpdateFixture(v1, heap_cells=1 << 15).start()
        disable_sweep(fixture)
        fixture.run(until_ms=54)
        pre = heap_fingerprint(fixture.vm)
        holder = lazy_update(fixture, 55, v2)
        fixture.run(until_ms=120)
        assert holder["result"].succeeded, holder["result"].reason
        fixture.engine.drain_lazy_epoch(max_objects=budget)
        reverse = fixture.update_at(120, v1, "1.0", policy=LAZY)
        fixture.run(until_ms=200)
        assert reverse["result"].succeeded, reverse["result"].reason
        fixture.engine.drain_lazy_epoch()
        assert heap_fingerprint(fixture.vm) == pre
        fixture.run(until_ms=5_000)
        checksum = n * (n + 1) // 2
        assert fixture.console == [f"sum:{checksum}:v1"]
