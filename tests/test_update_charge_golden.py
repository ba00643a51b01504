"""Golden charges of the update collection and the transformer replay.

One small mixed heap is updated under each apply shape and fault point,
and everything the update leaves on the simulated clock and in the
registries is pinned: ``clock.cycles``, every span's start and end in
sim-ms, the fields of every collection's :class:`GCStats` (with the
update log it built), the metrics snapshot, the heap fingerprint and the
console. The digests were recorded before the collector and the replay
loop were reworked for host speed; any such rework must reproduce them
exactly.

The heap holds:

* ``Plain`` objects in a linked list, whose new field leaves the
  generated transformer plan-shaped (a field-copy plan);
* ``Custom`` objects with a hand-written transformer that computes a
  field, so it is interpreted;
* ``Forced`` objects whose transformer calls ``Sys.forceTransform`` on a
  ``Custom`` peer reachable only through them, so every peer is forced
  before the log reaches it;
* an unchanged ``Keep`` tree behind a reference array.
"""

import hashlib
import json

import pytest

from repro.dsu import engine as engine_module
from repro.dsu.engine import UpdateEngine, field_copy_plan
from repro.dsu.faults import FaultInjector, FaultPlan
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.harness.lazyheap import heap_fingerprint
from repro.dsu.upt import TRANSFORMERS_CLASS
from tests.dsu_helpers import UpdateFixture, nonzero_status_words

_SHARED = """
class Main {
    static int rounds;
    static void main() {
        Boot.setup();
        while (rounds < 120) {
            Sys.sleep(1);
            rounds = rounds + 1;
        }
        Sys.print(Report.render());
    }
}
class Root {
    static Plain[] plains;
    static Custom[] customs;
    static Forced[] forced;
    static Keep keep;
}
class Keep { int v; Keep[] kids; }
class Boot {
    static void setup() {
        Root.plains = new Plain[400];
        Plain last = null;
        for (int i = 0; i < 400; i = i + 1) {
            Plain p = new Plain();
            p.a = i;
            p.next = last;
            last = p;
            Root.plains[i] = p;
        }
        Root.customs = new Custom[150];
        Root.forced = new Forced[150];
        for (int i = 0; i < 150; i = i + 1) {
            Custom c = new Custom();
            c.x = i;
            c.y = 3 * i;
            Root.customs[i] = c;
            Custom hidden = new Custom();
            hidden.x = i + 7;
            hidden.y = i;
            Forced f = new Forced();
            f.z = 2 * i;
            f.peer = hidden;
            Root.forced[i] = f;
        }
        Keep keep = new Keep();
        keep.v = 11;
        keep.kids = new Keep[5];
        for (int i = 0; i < 5; i = i + 1) {
            Keep kid = new Keep();
            kid.v = i;
            keep.kids[i] = kid;
        }
        Root.keep = keep;
    }
}
class Report {
    static string render() {
        int total = 0;
        for (int i = 0; i < 400; i = i + 1) { total = total + Root.plains[i].a; }
        for (int i = 0; i < 150; i = i + 1) {
            total = total + Root.customs[i].x + Root.forced[i].z
                + Root.forced[i].peer.y;
        }
        return "total " + total + " keep " + Root.keep.kids[4].v;
    }
}
"""

V1 = _SHARED + """
class Plain { int a; Plain next; }
class Custom { int x; int y; }
class Forced { int z; Custom peer; }
"""

V2 = _SHARED + """
class Plain { int a; int b; Plain next; }
class Custom { int x; int y; int sum; }
class Forced { int z; int w; Custom peer; }
"""

TRANSFORMERS = {
    "Custom": """
    static void jvolveClass(Custom unused) { }
    static void jvolveObject(Custom to, v10_Custom from) {
        to.x = from.x;
        to.y = from.y;
        to.sum = from.x + from.y;
    }
""",
    "Forced": """
    static void jvolveClass(Forced unused) { }
    static void jvolveObject(Forced to, v10_Forced from) {
        to.z = from.z;
        to.peer = from.peer;
        Sys.forceTransform(to.peer);
        to.w = to.z + to.peer.sum;
    }
""",
}

#: case -> (engine keyword arguments, policy overrides, fault plan)
CASES = {
    "eager": ({}, {}, None),
    "eager-old-copy-reclaim": ({"eager_old_copy_reclaim": True}, {}, None),
    "lazy-idle-sweep": ({}, {"transform": "lazy"}, None),
    "gc-oom-after-copies": ({}, {}, FaultPlan(gc_oom_after_copies=300)),
    "transformer-raise-at": ({}, {}, FaultPlan(transformer_raise_at=420)),
    "transformer-cycle-at": ({}, {}, FaultPlan(transformer_cycle_at=37)),
}


def _run(case):
    engine_kwargs, overrides, plan = CASES[case]
    fixture = UpdateFixture(V1, heap_cells=1 << 15)
    fixture.engine = UpdateEngine(fixture.vm, **engine_kwargs)
    if plan is not None:
        fixture.engine.fault_injector = FaultInjector(plan)
    vm = fixture.vm
    collections = []
    collect = vm.collector.collect

    def recording_collect(*args, **kwargs):
        stats = collect(*args, **kwargs)
        collections.append([
            stats.objects_copied, stats.cells_copied, stats.objects_updated,
            stats.gc_time_ms, stats.roots_scanned,
            sorted(stats.survivors_by_class.items()),
            [list(pair) for pair in stats.update_log],
        ])
        return stats

    vm.collector.collect = recording_collect
    fixture.start()
    policy = UpdatePolicy(retry=RetryPolicy(timeout_ms=1_000.0), **overrides)
    holder = fixture.update_at(40, V2, policy=policy, overrides=TRANSFORMERS)
    fixture.run(until_ms=400)
    result = holder["result"]
    record = {
        "status": result.status,
        "reason": result.reason,
        "failed_phase": result.failed_phase,
        "cycles": vm.clock.cycles,
        "idle_cycles": vm.clock.idle_cycles,
        "spans": [[span.name, span.start_ms, span.end_ms]
                  for span in vm.tracer.walk()],
        "collections": collections,
        "metrics": vm.metrics.snapshot(),
        "fingerprint": [list(row) for row in heap_fingerprint(vm)],
        "console": fixture.console,
    }
    return result, record


def _digest(record):
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: case -> (status, busy cycles, sha256 of the whole record). Every run
#: ends idle at the same simulated time, so the busy share (``cycles -
#: idle_cycles``) is the readable figure; the digest covers both.
GOLDEN = {
    "eager": (
        "applied", 102948,
        "e9840fc3a68ef59d29bb0f54527ceb280903047b3a74b2d709f26f55f0e063f4"),
    "eager-old-copy-reclaim": (
        "applied", 102948,
        "e9bdbbca4de57fe32ac6c447cec4b5db4a6966fb84934f8e6714530c8f3dd75c"),
    "gc-oom-after-copies": (
        "aborted", 62075,
        "95da50cf7adc487c029f6dd4b77776d3658fd4190be5dcb73bacdea98b57eb66"),
    "lazy-idle-sweep": (
        "applied", 98668,
        "d857c7ae1d1d0cb1c0673aade5b673b3150dcc0c1b8ae5bbff92e0ac1d7de705"),
    "transformer-cycle-at": (
        "aborted", 78648,
        "cd0b49f75d7e3e9f3582164c7ee8acb5b70f0535ca0aad52c0bc34daa721eeae"),
    "transformer-raise-at": (
        "aborted", 88108,
        "e8406699d89868b768b594aaaea9c4e0a13079579e4683720b55e4ab130adac2"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_update_charges_match_the_golden_record(case):
    result, record = _run(case)
    status, cycles, digest = GOLDEN[case]
    busy = record["cycles"] - record["idle_cycles"]
    assert (result.status, busy) == (status, cycles)
    assert _digest(record) == digest


def test_the_cases_cover_every_shape():
    """Each case reaches the path it names: the plan-shaped, interpreted
    and forced transformers all run, the lazy epoch drains in more than
    one idle slice, and every fault aborts in its own phase."""
    outcomes = {}
    for case in CASES:
        result, record = _run(case)
        counters = record["metrics"]["counters"]
        outcomes[case] = (result.status, result.failed_phase)
        if case.startswith("eager") or case.startswith("lazy"):
            assert result.succeeded, result.reason
            assert counters["dsu.transformer_plan_copies"] == 400
            # 400 plans; 150 custom, 150 forced and their 150 forced
            # peers interpreted; one class transformer per class
            assert counters["dsu.transformer_invocations"] == 400 + 450 + 3
            assert record["console"] == ["total 124500 keep 4"]
        if case.startswith("lazy"):
            sweeps = [span for span in record["spans"]
                      if span[0] == "dsu.lazy.sweep"]
            assert len(sweeps) > 1
    assert outcomes["gc-oom-after-copies"] == ("aborted", "gc")
    assert outcomes["transformer-raise-at"] == ("aborted", "transform")
    assert outcomes["transformer-cycle-at"] == ("aborted", "transform")


@pytest.mark.parametrize("index", [0, 399, 400, 600, 849])
def test_a_transformer_failure_restores_the_pre_update_heap(index):
    """An injected failure at any object of the replay (a plan copy, an
    interpreted transformer, one reached through ``Sys.forceTransform``)
    rolls back to the exact pre-update image: the same cells in the same
    space, and every status word 0. Between the two snapshots the program
    only sleeps and bumps a static int, so nothing else moves them."""
    fixture = UpdateFixture(V1, heap_cells=1 << 15)
    fixture.engine.fault_injector = FaultInjector(
        FaultPlan(transformer_raise_at=index)
    )
    fixture.start()
    vm = fixture.vm
    fixture.run(until_ms=39)
    heap = vm.heap
    before = (heap.current_space, heap.bump,
              heap.cells[heap.space_start:heap.bump], heap_fingerprint(vm))
    holder = fixture.update_at(40, V2, overrides=TRANSFORMERS)
    fixture.run(until_ms=60)
    result = holder["result"]
    assert (result.status, result.failed_phase) == ("aborted", "transform")
    assert result.rolled_back
    assert f"object #{index}" in result.reason
    after = (heap.current_space, heap.bump,
             heap.cells[heap.space_start:heap.bump], heap_fingerprint(vm))
    assert after == before
    assert nonzero_status_words(vm) == []


PLAIN_TRANSFORMER = "(LPlain;,Lv10_Plain;)V"


class _InvalidateAt(FaultInjector):
    """Throws away the ``Plain`` transformer's compiled code just before
    the replay reaches object ``index``."""

    def __init__(self, vm, index):
        super().__init__(FaultPlan())
        self.vm = vm
        self.index = index

    def on_transform_object(self, address):
        if self.transforms_seen == self.index:
            self.vm.methods.lookup(
                TRANSFORMERS_CLASS, "jvolveObject", PLAIN_TRANSFORMER
            ).invalidate()
        super().on_transform_object(address)


@pytest.mark.parametrize("invalidate", [False, True])
def test_changed_transformer_code_is_replanned_on_the_next_object(
    monkeypatch, invalidate
):
    """The record re-reads its plan only when the entry's compiled code
    is no longer the code the plan came from. Here a fresh compile of the
    ``Plain`` transformer yields no plan, so every ``Plain`` object after
    the first is interpreted — and ends up exactly as the plan leaves it."""
    expected = _run("eager")[1]["fingerprint"]
    planned = []

    def plan_the_first_code_only(code):
        planned.append(code)
        return field_copy_plan(code) if len(planned) == 1 else None

    monkeypatch.setattr(engine_module, "field_copy_plan",
                        plan_the_first_code_only)
    fixture = UpdateFixture(V1, heap_cells=1 << 15)
    vm = fixture.vm
    if invalidate:
        fixture.engine.fault_injector = _InvalidateAt(vm, 1)
    fixture.start()
    holder = fixture.update_at(40, V2, overrides=TRANSFORMERS)
    fixture.run(until_ms=400)
    assert holder["result"].succeeded, holder["result"].reason
    counters = vm.metrics.snapshot()["counters"]
    assert counters["dsu.transformer_invocations"] == 400 + 450 + 3
    # Custom and Forced bodies are read once each and never planned.
    plain_codes = [code for code in planned
                   if code.entry.info.descriptor == PLAIN_TRANSFORMER]
    if invalidate:
        assert len(plain_codes) == 2
        assert plain_codes[0] is not plain_codes[1]
        assert counters["dsu.transformer_plan_copies"] == 1
    else:
        assert len(plain_codes) == 1
        assert counters["dsu.transformer_plan_copies"] == 400
    assert fixture.console == ["total 124500 keep 4"]
    assert [list(row) for row in heap_fingerprint(vm)] == expected
