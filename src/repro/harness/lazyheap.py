"""Lazy vs eager transformation: pause scaling and end-state equality.

The eager update pause contains the update collection plus every object
transformer, so it grows linearly with the number of changed-class
objects (§4.1's Table 1 shape). The lazy epoch moves all per-object work
out of the pause — transform-on-first-touch behind the read barrier,
remainder swept in idle slices — so the pause should be *flat* in heap
size while the total overhead (pause + epoch drain) stays in the same
ballpark as eager.

Two experiments, one ``repro report`` row (``BENCH_lazy.json``,
:func:`lazyheap_figure`):

* **curve** — the microbenchmark population (all ``Change`` instances)
  at growing object counts, updated once per mode. Records the pause
  breakdown, and for lazy also the simulated cost of draining the epoch
  to empty (``epoch_drain_ms``). The gates assert the tentpole claim:
  from the smallest to the largest heap the eager pause grows at least
  half as fast as the object count (>= 50x over the default 100x) while
  every lazy pause stays within 2x of the empty-heap pause.
* **differential** — every bundled update applied twice from identical
  quiescent boots, once eagerly and once lazily (epoch drained to
  empty afterwards). The statics-reachable heaps must be isomorphic:
  an address-free fingerprint — canonical object numbering from a
  deterministic walk of the static reference roots — must match
  exactly, as must the console transcripts. This is the proof that the
  epoch machinery (barrier heals, forwarding, the closing collection)
  is semantically invisible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..apps.registry import APPS, update_pairs
from ..dsu.policy import UpdatePolicy
from ..dsu.safepoint import RetryPolicy
from ..vm.heap import NULL
from ..vm.rvmclass import RVMClass
from ..vm.vm import VM
from .microbench import apply_micro_update, heap_cells_for
from .updates import Figure, harness_policy, json_figure, run_update

#: the pause-scaling sweep: 10k -> 1M objects, two orders of magnitude
CURVE_SIZES = (10_000, 100_000, 1_000_000)

# ---------------------------------------------------------------------------
# the pause-scaling curve


@dataclass
class CurvePoint:
    """One (object count, transform mode) measurement."""

    num_objects: int
    mode: str
    heap_cells: int
    total_pause_ms: float
    gc_pause_ms: float
    transform_pause_ms: float
    #: objects transformed *inside the pause* (0 in lazy mode — that is
    #: the point)
    objects_in_pause: int
    #: simulated cost of draining the lazy epoch to empty afterwards
    #: (0.0 for eager: there is nothing left to do after the pause)
    epoch_drain_ms: float = 0.0
    #: how the lazy epoch's objects actually got transformed
    sweep_transforms: int = 0
    touch_transforms: int = 0

    @property
    def total_overhead_ms(self) -> float:
        """Pause plus deferred per-object work — what the update costs
        end to end, however the cost is scheduled."""
        return self.total_pause_ms + self.epoch_drain_ms


def measure_curve_point(num_objects: int, mode: str) -> CurvePoint:
    """Populate a heap with ``num_objects`` microbenchmark objects (all
    ``Change`` instances) and apply one update in the given transform
    mode; for lazy, drain the epoch synchronously so its full deferred
    cost is on the books."""
    heap_cells = heap_cells_for(max(num_objects, 256))
    driver, result = apply_micro_update(
        num_objects, 1.0,
        UpdatePolicy(retry=RetryPolicy(timeout_ms=120_000.0), transform=mode),
        heap_cells,
    )
    vm, engine = driver.vm, driver.engine

    epoch_drain_ms = 0.0
    sweep_transforms = touch_transforms = 0
    if mode == "lazy":
        engine.drain_lazy_epoch()  # no-op if the idle sweep already closed
        if engine.lazy_epoch is not None:
            raise RuntimeError("lazy epoch failed to close after a drain")
        # The sweep ran inside idle scheduler slices during vm.run above;
        # its simulated cost is the summed duration of the sweep spans
        # (each span only covers actual transform work — the rest of the
        # idle slice is dead time the clock skips regardless).
        epoch_drain_ms = sum(
            span.duration_ms
            for root in vm.tracer.roots
            for span in root.walk()
            if span.name == "dsu.lazy.sweep"
        )
        counters = vm.metrics.counters
        if "dsu.lazy.sweep_transforms" in counters:
            sweep_transforms = counters["dsu.lazy.sweep_transforms"].value
        if "dsu.lazy.touch_transforms" in counters:
            touch_transforms = counters["dsu.lazy.touch_transforms"].value

    return CurvePoint(
        num_objects=num_objects,
        mode=mode,
        heap_cells=heap_cells,
        total_pause_ms=round(result.total_pause_ms, 6),
        gc_pause_ms=round(result.phase_ms.get("gc", 0.0), 6),
        transform_pause_ms=round(result.phase_ms.get("transform", 0.0), 6),
        objects_in_pause=result.objects_transformed,
        epoch_drain_ms=round(epoch_drain_ms, 6),
        sweep_transforms=sweep_transforms,
        touch_transforms=touch_transforms,
    )


def run_curve(sizes: Sequence[int]) -> Tuple[CurvePoint, List[CurvePoint]]:
    """The empty-heap baseline plus both modes at every size."""
    baseline = measure_curve_point(0, "eager")
    points = []
    for num_objects in sizes:
        for mode in ("eager", "lazy"):
            points.append(measure_curve_point(num_objects, mode))
    return baseline, points


def curve_problems(
    baseline: CurvePoint, points: List[CurvePoint]
) -> List[str]:
    """The tentpole gates: lazy pause flat (within 2x of the empty-heap
    pause) while the eager pause grows at least half as fast as the object
    count across the sweep."""
    problems = []
    lazy = sorted(
        (p for p in points if p.mode == "lazy"), key=lambda p: p.num_objects
    )
    eager = sorted(
        (p for p in points if p.mode == "eager"), key=lambda p: p.num_objects
    )
    for point in lazy:
        if point.total_pause_ms > 2.0 * baseline.total_pause_ms:
            problems.append(
                f"lazy pause at {point.num_objects} objects is "
                f"{point.total_pause_ms:.3f} ms > 2x the empty-heap pause "
                f"({baseline.total_pause_ms:.3f} ms) — the pause is "
                "scaling with the heap again"
            )
        if point.objects_in_pause:
            problems.append(
                f"lazy update at {point.num_objects} objects transformed "
                f"{point.objects_in_pause} objects inside the pause"
            )
        if point.gc_pause_ms:
            problems.append(
                f"lazy update at {point.num_objects} objects spent "
                f"{point.gc_pause_ms:.3f} ms in an update collection"
            )
    if len(eager) >= 2:
        smallest, largest = eager[0], eager[-1]
        # linear in the heap, give or take the fixed costs: at least half
        # the object-count ratio (>= 50x over the default 10k -> 1M)
        bound = largest.num_objects / smallest.num_objects / 2
        if smallest.total_pause_ms <= 0.0:
            problems.append("eager pause at the smallest size is zero")
        elif largest.total_pause_ms < bound * smallest.total_pause_ms:
            ratio = largest.total_pause_ms / smallest.total_pause_ms
            problems.append(
                f"eager pause grew only {ratio:.1f}x from "
                f"{smallest.num_objects} to {largest.num_objects} objects "
                f"(expected >= {bound:g}x) — the sweep no longer "
                "demonstrates the scaling problem lazy mode solves"
            )
    return problems


# ---------------------------------------------------------------------------
# address-free heap fingerprints


def heap_fingerprint(vm: VM) -> List[tuple]:
    """A canonical, address-free description of the statics-reachable
    heap: objects are numbered in deterministic BFS discovery order from
    the static reference roots (classes and fields sorted by name), and
    every reference is replaced by that number. Two VMs whose programs
    reached the same state produce identical fingerprints regardless of
    where the collector or the lazy epoch left the objects."""
    objects = vm.objects
    registry = vm.registry
    order: Dict[int, int] = {}
    queue: deque = deque()

    def visit(address: int) -> int:
        address = objects.canonical_address(address)
        if address == NULL:
            return 0
        number = order.get(address)
        if number is None:
            number = order[address] = len(order) + 1
            queue.append(address)
        return number

    rows: List[tuple] = []
    for class_name in sorted(registry.loaded_names()):
        rvmclass = registry.get(class_name)
        for field_name in sorted(rvmclass.static_slots):
            if rvmclass.static_is_ref.get(field_name):
                value = vm.jtoc.read(rvmclass.static_slots[field_name])
                rows.append(("static", class_name, field_name, visit(value)))

    while queue:
        address = queue.popleft()
        rvmclass = objects.class_of(address)
        if rvmclass.kind == RVMClass.KIND_ARRAY:
            rows.append((
                "array", rvmclass.name,
                tuple(
                    visit(objects.array_get(address, index))
                    if rvmclass.elements_are_refs
                    else objects.array_get(address, index)
                    for index in range(objects.array_length(address))
                ),
            ))
        elif rvmclass.kind == RVMClass.KIND_STRING:
            rows.append(("string", objects.string_payload(address)))
        else:
            rows.append((
                "object", rvmclass.name,
                tuple(
                    visit(objects.read_cell(address, slot.cell_offset))
                    if slot.is_ref
                    else objects.read_cell(address, slot.cell_offset)
                    for slot in rvmclass.field_layout
                ),
            ))
    return rows


# ---------------------------------------------------------------------------
# differential: every bundled update, eager vs lazy


@dataclass
class DifferentialRow:
    """Eager vs lazy end-state comparison for one bundled update."""

    app: str
    from_version: str
    to_version: str
    eager_status: str
    lazy_status: str
    state_equal: bool
    console_equal: bool
    #: objects in the lazy fingerprint (== eager's when state_equal)
    objects_compared: int = 0
    #: first differing fingerprint row, for debugging a mismatch
    first_difference: str = ""

    def problems(self) -> List[str]:
        label = f"{self.app} {self.from_version}->{self.to_version}"
        problems = []
        if self.eager_status != "applied":
            problems.append(f"{label}: eager update {self.eager_status}")
        if self.lazy_status != "applied":
            problems.append(f"{label}: lazy update {self.lazy_status}")
        if not problems and not self.console_equal:
            problems.append(f"{label}: console transcripts diverge")
        if not problems and not self.state_equal:
            problems.append(
                f"{label}: statics-reachable heaps differ "
                f"({self.first_difference})"
            )
        return problems


def compare_update_pair(
    app: str, from_version: str, to_version: str
) -> DifferentialRow:
    """Boot ``from_version`` twice (no load), update once per mode, drain
    the lazy epoch, and compare the end states."""
    eager_driver, eager_holder, _ = run_update(
        app, from_version, to_version, harness_policy(1_000.0)
    )
    lazy_driver, lazy_holder, _ = run_update(
        app, from_version, to_version,
        harness_policy(1_000.0, transform="lazy"),
    )
    eager_print = heap_fingerprint(eager_driver.vm)
    lazy_print = heap_fingerprint(lazy_driver.vm)
    first_difference = ""
    if eager_print != lazy_print:
        for index, (left, right) in enumerate(zip(eager_print, lazy_print)):
            if left != right:
                first_difference = (
                    f"row {index}: eager={left!r} lazy={right!r}"
                )
                break
        else:
            first_difference = (
                f"row counts differ: eager={len(eager_print)} "
                f"lazy={len(lazy_print)}"
            )
    return DifferentialRow(
        app=app,
        from_version=from_version,
        to_version=to_version,
        eager_status=eager_holder["result"].status,
        lazy_status=lazy_holder["result"].status,
        state_equal=eager_print == lazy_print,
        console_equal=eager_driver.vm.console == lazy_driver.vm.console,
        objects_compared=len(lazy_print),
        first_difference=first_difference,
    )


def run_differential() -> List[DifferentialRow]:
    """Eager-vs-lazy end-state equality for all bundled updates."""
    return [
        compare_update_pair(app, from_version, to_version)
        for app in APPS
        for from_version, to_version in update_pairs(app)
    ]


# ---------------------------------------------------------------------------
# the artifact


def lazyheap_report(
    baseline: CurvePoint, points: List[CurvePoint],
    rows: List[DifferentialRow],
) -> dict:
    """The ``BENCH_lazy.json`` payload, ``problems`` included."""
    problems = curve_problems(baseline, points)
    for row in rows:
        problems.extend(row.problems())
    return {
        "benchmark": "lazy-transformation",
        "clock": "simulated",
        "baseline": asdict(baseline),
        "curve": [
            {**asdict(point), "total_overhead_ms": point.total_overhead_ms}
            for point in points
        ],
        "differential": [asdict(row) for row in rows],
        "problems": problems,
    }


def lazyheap_figure() -> Figure:
    """``BENCH_lazy.json``: the pause curve at ``CURVE_SIZES`` plus the
    22-update end-state differential.

    Its problems fail ``repro report`` unless every lazy pause stays
    within 2x of the empty-heap pause while the eager pause grows at
    least half as fast as the heap (>= 50x over 10k -> 1M objects: pause
    decoupled from heap size), and unless all 22 bundled updates reach an
    identical statics-reachable end state (address-free fingerprint +
    console transcript) whether applied eagerly or through a drained lazy
    epoch."""
    return json_figure(
        lazyheap_report(*run_curve(CURVE_SIZES), run_differential())
    )
