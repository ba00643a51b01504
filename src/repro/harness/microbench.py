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
from ..vm.vm import VM
from .updates import AppDriver, harness_policy, run_update

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

#: default scaled-down sweep (paper: 280k/770k/1.76M/3.67M objects in
#: 160/320/640/1280 MB heaps; divide by ~70)
DEFAULT_OBJECT_COUNTS = (4_000, 11_000, 25_000, 52_000)
DEFAULT_FRACTIONS = tuple(i / 10 for i in range(11))

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


def apply_micro_update(
    num_objects: int,
    fraction: float,
    policy: UpdatePolicy,
    heap_cells: int,
    costs=None,
) -> Tuple[AppDriver, UpdateResult]:
    """Boot the microbenchmark program on a ``heap_cells`` heap holding
    ``num_objects`` objects (``fraction`` of them ``Change`` instances) and
    apply the micro1 -> micro2 update under ``policy``; raises unless it
    applies."""
    driver = AppDriver(
        "micro", {"micro1": MICRO_V1, "micro2": MICRO_V2}, "Main",
        heap_cells=heap_cells, costs=costs,
    ).boot("micro1")
    driver.run(max_instructions=10_000)  # main returns immediately

    populate(driver.vm, num_objects, fraction)

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
    object_counts: Sequence[int] = DEFAULT_OBJECT_COUNTS,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
) -> List[MicrobenchResult]:
    """The full Table-1 grid."""
    results = []
    for count in object_counts:
        for fraction in fractions:
            results.append(run_microbench(count, fraction))
    return results


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
