"""The update-pause microbenchmark (paper §4.1, Table 1 and Figure 6).

"The microbenchmark has two simple classes, Change and NoChange. Both
contain three integer fields, and three reference fields that are always
null. The update adds an integer field to Change. The user-provided object
transformation function copies the existing fields and initializes the new
field to zero. We measure the cost of performing an update while varying
the total number of objects and the fraction of objects of each type."

Scaling: the paper fills 160 MB–1280 MB heaps with 0.28M–3.67M objects; we
scale object counts down (configurable) because the heap is a Python list.
EXPERIMENTS.md records the mapping. The *shape* — GC time roughly doubling
from 0% to 100% updated, transformer time linear and steeper, total pause
~4x at 100% — comes from the simulated work counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..apps.sessions import open_session
from ..dsu.engine import UpdateRequest, UpdateResult
from ..dsu.policy import UpdatePolicy
from ..dsu.safepoint import RetryPolicy
from ..vm.clock import CostModel
from ..vm.vm import VM
from .updates import AppDriver, Figure, failed, harness_policy, run_update

MICRO_V1 = """
class Change {
    int a;
    int b;
    int c;
    Change x;
    Change y;
    Change z;
}
class NoChange {
    int a;
    int b;
    int c;
    NoChange x;
    NoChange y;
    NoChange z;
}
class Holder {
    static Object[] items;
}
class Main {
    static void main() { }
}
"""

MICRO_V2 = MICRO_V1.replace(
    """class Change {
    int a;
    int b;
    int c;""",
    """class Change {
    int a;
    int b;
    int c;
    int d;""",
)

#: cells per microbenchmark object (header 2 + 6 fields)
OBJECT_CELLS = 8

#: the paper's heap-size label for each scaled object count
PAPER_HEAP_LABELS = {
    4_000: "160 MB",
    11_000: "320 MB",
    25_000: "640 MB",
    52_000: "1280 MB",
}


@dataclass
class MicrobenchResult:
    """One cell of Table 1."""

    num_objects: int
    fraction: float
    heap_cells: int
    gc_ms: float
    transform_ms: float
    classload_ms: float
    total_pause_ms: float
    objects_transformed: int

    @property
    def paper_heap_label(self) -> str:
        return PAPER_HEAP_LABELS.get(self.num_objects, f"{self.num_objects} objs")


def heap_cells_for(num_objects: int) -> int:
    """Size the heap so the update GC (which temporarily doubles every
    updated object) always fits: per semispace we need the full population,
    the holder array, and the worst-case duplicates."""
    population = num_objects * OBJECT_CELLS
    duplicates = num_objects * (2 * OBJECT_CELLS + 1)
    array = num_objects + 8
    semispace = population + duplicates + array + 4_096
    return 2 * semispace + 64


def populate(vm: VM, num_objects: int, fraction: float) -> int:
    """Allocate the object population, anchored via Holder.items.

    Returns the number of Change instances created.
    """
    change_class = vm.registry.get("Change")
    nochange_class = vm.registry.get("NoChange")
    holder = vm.registry.get("Holder")
    array_class = vm.objects.array_class("LObject;")
    items_slot = holder.static_slots["items"]

    array = vm.allocate_array(array_class, num_objects)
    vm.jtoc.write(items_slot, array)  # anchor before any further allocation

    num_change = int(round(num_objects * fraction))
    for index in range(num_objects):
        rvmclass = change_class if index < num_change else nochange_class
        address = vm.objects.alloc_object(rvmclass)  # pre-sized heap: no GC
        vm.objects.array_set(vm.jtoc.read(items_slot), index, address)
    return num_change


def boot_micro(
    num_objects: int, fraction: float, heap_cells: int, costs=None
) -> AppDriver:
    """Boot the microbenchmark program on a ``heap_cells`` heap holding
    ``num_objects`` objects, ``fraction`` of them ``Change`` instances."""
    driver = AppDriver(
        "micro", {"micro1": MICRO_V1, "micro2": MICRO_V2}, "Main",
        heap_cells=heap_cells, costs=costs,
    ).boot("micro1")
    driver.run(max_instructions=10_000)  # main returns immediately
    populate(driver.vm, num_objects, fraction)
    return driver


def apply_micro_update(
    num_objects: int,
    fraction: float,
    policy: UpdatePolicy,
    heap_cells: int,
    costs=None,
) -> Tuple[AppDriver, UpdateResult]:
    """Apply the micro1 -> micro2 update to a :func:`boot_micro` heap under
    ``policy``; raises unless it applies."""
    driver = boot_micro(num_objects, fraction, heap_cells, costs)
    result = driver.engine.submit(
        UpdateRequest(driver.prepare("micro2"), policy=policy)
    )
    driver.run(max_instructions=1_000_000_000)
    if not result.succeeded:
        raise RuntimeError(
            f"microbenchmark update failed ({policy.transform}, "
            f"{num_objects} objects): {result.reason}"
        )
    return driver, result


def run_microbench(
    num_objects: int, fraction: float, costs=None
) -> MicrobenchResult:
    """Populate a heap and measure one update's pause breakdown."""
    heap_cells = heap_cells_for(num_objects)
    _, result = apply_micro_update(
        num_objects, fraction,
        UpdatePolicy(retry=RetryPolicy(timeout_ms=60_000.0)),
        heap_cells, costs=costs,
    )
    return MicrobenchResult(
        num_objects=num_objects,
        fraction=fraction,
        heap_cells=heap_cells,
        gc_ms=result.phase_ms.get("gc", 0.0),
        transform_ms=result.phase_ms.get("transform", 0.0),
        classload_ms=result.phase_ms.get("classload", 0.0),
        total_pause_ms=result.total_pause_ms,
        objects_transformed=result.objects_transformed,
    )


def sweep(
    object_counts: Sequence[int], fractions: Sequence[float]
) -> List[MicrobenchResult]:
    """The full Table-1 grid."""
    results = []
    for count in object_counts:
        for fraction in fractions:
            results.append(run_microbench(count, fraction))
    return results


def pause_breakdown_figure(num_objects: int) -> Figure:
    """§4.1 (E7): suspending threads and checking the safe point takes
    under a millisecond, classloading under 20 ms; "the update disruption
    time is primarily due to the GC and object transformers"."""
    r = run_microbench(num_objects, 0.5)
    suspend = r.total_pause_ms - r.gc_ms - r.transform_ms - r.classload_ms
    text = "\n".join([
        "Update pause breakdown (simulated ms)",
        f"  suspend+osr+cleanup: {suspend:8.3f}   (paper: < 1 ms)",
        f"  classloading:        {r.classload_ms:8.3f}   (paper: < 20 ms)",
        f"  garbage collection:  {r.gc_ms:8.3f}",
        f"  transformers:        {r.transform_ms:8.3f}",
        f"  total:               {r.total_pause_ms:8.3f}",
    ])
    return text, failed([
        (suspend < 1.0, "suspend+osr+cleanup is not sub-millisecond"),
        (r.classload_ms < 20.0, "classloading is not under 20 ms"),
        (r.gc_ms + r.transform_ms > 0.8 * r.total_pause_ms,
         "GC + transformers are under 80% of the pause"),
    ])


def ablation_transformer_cost_figure(num_objects: int) -> Figure:
    """§4.1 (E8): "The cost of reflection could be reduced by caching the
    lookup, but even then a naively compiled field-by-field copy is much
    slower than the collector's highly-optimized copying loop." The
    100%-updated heap, with and without the reflective dispatch and
    per-field charges."""
    reflective = run_microbench(num_objects, 1.0).transform_ms
    optimized = run_microbench(
        num_objects, 1.0,
        costs=CostModel(transform_dispatch=0, transform_field=0),
    ).transform_ms
    saved = reflective - optimized
    text = "\n".join([
        "Ablation: reflective vs optimized transformer dispatch (100% updated)",
        f"  reflective transformer time: {reflective:8.2f} ms",
        f"  optimized transformer time:  {optimized:8.2f} ms",
        f"  reflection overhead:         {saved:8.2f} ms "
        f"({saved / reflective:.0%} of transformer time)",
    ])
    return text, failed([
        (0.1 < optimized < reflective,
         "free dispatch did not speed transformers up, or made them free"),
    ])


def ablation_old_copy_space_figure(num_objects: int) -> Figure:
    """§3.4 (E8): old copies are garbage after the update; "If we put them
    in a special space, we could reclaim them immediately." Post-update
    heap headroom, both ways."""

    def free_cells_after_update(eager: bool) -> int:
        driver = boot_micro(num_objects, 1.0, heap_cells_for(num_objects))
        driver.engine.eager_old_copy_reclaim = eager
        result = driver.engine.submit(UpdateRequest(driver.prepare("micro2")))
        driver.run(max_instructions=100_000_000)
        if not result.succeeded:
            raise RuntimeError(f"old-copy ablation update: {result.reason}")
        return driver.vm.heap.free_cells

    lazy_free = free_cells_after_update(False)
    eager_free = free_cells_after_update(True)
    reclaimed = eager_free - lazy_free
    text = "\n".join([
        "Ablation: eager old-copy reclamation (special space) vs lazy (§3.4)",
        f"  free cells after update, lazy (wait for next GC): {lazy_free:>10d}",
        f"  free cells after update, eager (special space):   {eager_free:>10d}",
        f"  headroom recovered immediately: {reclaimed} cells "
        f"(~{reclaimed // OBJECT_CELLS} old copies)",
    ])
    return text, failed([
        (reclaimed >= num_objects * OBJECT_CELLS,
         "not every old copy came back immediately"),
    ])


# ---------------------------------------------------------------------------
# Safe-point acquisition under load: does semantic-diff minimization help?


@dataclass
class SafepointAcquisitionResult:
    """One run of a busy server taking an update, with the semantic-diff
    minimizer either on or off. The interesting comparison is the pair of
    runs: a smaller restricted set means fewer live frames can block the
    safe point, so acquisition needs fewer rounds / less waiting."""

    app: str
    from_version: str
    to_version: str
    minimized: bool
    restricted_size: int
    succeeded: bool
    #: safe-point attempts made inside the winning (or final) round
    attempts: int
    #: acquisition rounds used (1 = first window sufficed)
    rounds: int
    #: live restricted frames the VM had to on-stack-replace to reach the
    #: safe point — every category-2 escape the minimizer proves is one
    #: fewer frame here
    osr_frames: int
    #: simulated ms between the request and the pause actually starting
    wait_ms: float
    total_pause_ms: float


#: per-app session start times (simulated ms) for :func:`busy_load`
BUSY_LOAD_STARTS = {
    "jetty": [30.0 + 7.0 * i for i in range(3)],
    "javaemail": [30.0 + 20.0 * i for i in range(6)],
    "crossftp": [30.0 + 40.0 * i for i in range(3)],
}


def busy_load(vm: VM, app: str) -> list:
    """Sustained traffic so application frames are live when the update
    fires (heavier than the experience sweep's light load)."""
    return [
        open_session(vm, app, index, at_ms, text=f"load {index // 2}",
                     num_requests=60)
        for index, at_ms in enumerate(BUSY_LOAD_STARTS[app])
    ]


def run_safepoint_acquisition_bench(
    app: str, from_version: str, to_version: str, minimize: bool
) -> SafepointAcquisitionResult:
    """Boot a server, put it under sustained load so application frames
    are live when the update fires, and measure how quickly the DSU safe
    point is acquired with/without restricted-set minimization."""
    driver, holder, _ = run_update(
        app, from_version, to_version,
        harness_policy(retry=RetryPolicy(1_000.0, retries=6, backoff=1.5)),
        busy_load, request_at_ms=120.0, until_ms=30_000.0, minimize=minimize,
    )
    result = holder["result"]
    spec = holder["prepared"].spec
    wait_ms = max(
        0.0,
        result.finished_at_ms - result.requested_at_ms - result.total_pause_ms,
    )
    return SafepointAcquisitionResult(
        app=app,
        from_version=from_version,
        to_version=to_version,
        minimized=minimize,
        restricted_size=spec.restricted_size(),
        succeeded=result.succeeded,
        attempts=result.attempts,
        rounds=result.retry_rounds + 1,
        osr_frames=result.osr_frames,
        wait_ms=wait_ms,
        total_pause_ms=result.total_pause_ms,
    )


def render_safepoint_acquisition(
    results: Sequence[SafepointAcquisitionResult],
) -> str:
    lines = [
        "Safe-point acquisition under load (semantic-diff minimization "
        "off vs on)",
        f"{'update':>22s} {'minimize':>9s} {'restr':>6s} {'rounds':>7s} "
        f"{'attempts':>9s} {'osr':>4s} {'wait(ms)':>9s} {'pause(ms)':>10s} "
        f"{'outcome':>8s}",
    ]
    for r in results:
        update = f"{r.app} {r.from_version}->{r.to_version}"
        lines.append(
            f"{update:>22s} {'on' if r.minimized else 'off':>9s} "
            f"{r.restricted_size:>6d} {r.rounds:>7d} {r.attempts:>9d} "
            f"{r.osr_frames:>4d} {r.wait_ms:>9.1f} {r.total_pause_ms:>10.1f} "
            f"{'applied' if r.succeeded else 'aborted':>8s}"
        )
    return "\n".join(lines)


def safepoint_acquisition_figure() -> Figure:
    """The minimizer's runtime payoff: on the paper's Figure-3 update
    (JavaEmailServer 1.3.1 -> 1.3.2) the unminimized set forces OSR of all
    three live processor/sender loops; minimization proves the two processor
    loops' baked ``User`` offsets stable, leaving only ``SMTPSender.run``."""
    updates = (("javaemail", "1.3.1", "1.3.2"), ("jetty", "5.1.3", "5.1.4"))
    pairs = [  # (minimizer off, minimizer on) per update
        tuple(run_safepoint_acquisition_bench(*update, minimize=minimize)
              for minimize in (False, True))
        for update in updates
    ]
    checks = [(
        tuple(r.osr_frames for r in pairs[0]) == (3, 1),
        "javaemail 1.3.1->1.3.2 does not go from 3 OSR frames to 1",
    )]
    for off, on in pairs:
        update = f"{on.app} {on.from_version}->{on.to_version}"
        checks += [
            (off.succeeded and on.succeeded, f"{update}: did not apply"),
            (on.restricted_size < off.restricted_size,
             f"{update}: minimization did not shrink the restricted set"),
            (on.rounds <= off.rounds and on.osr_frames <= off.osr_frames
             and on.wait_ms <= off.wait_ms,
             f"{update}: minimization made the safe point harder to reach"),
        ]
    results = [result for pair in pairs for result in pair]
    return render_safepoint_acquisition(results), failed(checks)
