"""``heap_eager`` / ``heap_lazy`` — the paper's Table-1 pause workload.

The microbenchmark classes (``harness.microbench.MICRO_V1/V2``: ``Change``
and ``NoChange``, three ints and three null references each; the update
adds ``int d`` to ``Change``) at 60 000 objects, half of them ``Change``.
The benchmark seeds every int field with an index-derived value through
``ObjectModel``'s public accessors, so "the transformer copied the fields"
is checkable against plain arithmetic.

Timed section, per repetition on a fresh VM:

1. one plain ``vm.collect()`` — the collector without an update map;
2. one update, ``transform="eager"`` (``heap_eager``: update collection +
   interpreted ``jvolveObject`` replay inside the pause) or
   ``transform="lazy"`` followed by a synchronous ``drain_lazy_epoch()``
   (``heap_lazy``: nothing in the pause, barrier/sweep + closing
   collection afterwards). ``apply_ms`` runs through epoch close.

The two workloads use the same layers the other way round: a change that
speeds eager replay by slowing the sweep (or the reverse) shows as a loss
on the other one. Each workload's discarded warm-up repetition runs the
*other* mode, and the two end states must be equal under
``harness.lazyheap.heap_fingerprint``.
"""

from __future__ import annotations

import hashlib
import time
from typing import Tuple

from repro.api import VM, UpdatePolicy
from repro.harness.lazyheap import heap_fingerprint
from repro.harness.microbench import (
    MICRO_V1,
    MICRO_V2,
    heap_cells_for,
    populate,
)

from common import (
    APPLIED,
    Ctx,
    Rep,
    apply_update,
    boot_vm,
    compile_traced,
    offline_prepare,
    timed,
)

OBJECTS = 60_000
QUICK_OBJECTS = 2_000
CHANGE_FRACTION = 0.5
M = 1_000_003


def seeded_fields(index: int, seed: int) -> Tuple[int, int, int]:
    """The reference: what object ``index`` must hold before and after."""
    return ((index * 7 + seed) % M, index, (index * index + seed) % 9_973)


def fingerprint_digest(vm: VM) -> str:
    rows = heap_fingerprint(vm)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def run_mode(ctx: Ctx, rep: Rep, mode: str) -> str:
    """One fresh heap through one update in ``mode``; returns the end
    state's fingerprint digest."""
    probe = ctx.probe
    count = QUICK_OBJECTS if ctx.quick else OBJECTS

    # -- set-up: compile, boot, populate, seed, prepare --------------------
    setup_start = time.perf_counter()
    old_classfiles = compile_traced(probe, MICRO_V1, "<micro1>", "micro1")
    vm, engine = boot_vm(probe, old_classfiles, "Main",
                         heap_cells_for(count), with_engine=True)
    probe.run_vm(vm, max_instructions=10_000)  # main returns immediately
    populate_start = time.perf_counter()
    with probe.span("vm.heap.populate", "vm", objects=count):
        changed = populate(vm, count, CHANGE_FRACTION)
    rep.layer["vm.heap.populate_objects_per_s"] = count / (
        time.perf_counter() - populate_start
    )
    objects = vm.objects
    items = vm.jtoc.read(vm.registry.get("Holder").static_slots["items"])
    for index in range(count):
        address = objects.array_get(items, index)
        a, b, c = seeded_fields(index, ctx.seed)
        objects.write_field(address, "a", a)
        objects.write_field(address, "b", b)
        objects.write_field(address, "c", c)
    prepared = offline_prepare(probe, old_classfiles, MICRO_V2, "micro1",
                               "micro2", own_section=True)
    rep.note_offline(mode, prepared.offline_ms)
    rep.setup_s = time.perf_counter() - setup_start

    # -- timed: plain collection, then the update --------------------------
    before = vm.interpreter.instructions_executed
    with timed() as watch:
        plain_start = time.perf_counter()
        stats = vm.collect()
        plain_s = time.perf_counter() - plain_start
        result, _ = apply_update(
            probe, vm, engine, prepared.prepared,
            UpdatePolicy(transform=mode), rep, mode,
            carried=count,  # the populated objects, as Table 1 counts them
        )
    rep.wall_s = watch.seconds
    rep.layer["vm.gc.plain_cells_per_s"] = stats.cells_copied / plain_s
    rep.instructions = vm.interpreter.instructions_executed - before
    rep.instruction_s = watch.seconds
    rep.requests = count
    rep.request_s = watch.seconds

    # -- references ---------------------------------------------------------
    ok = result.status == APPLIED and engine.lazy_epoch is None
    rep.check(ok, f"{mode} update {result.status}: {result.reason}")
    rep.note_result(result)
    items = vm.jtoc.read(vm.registry.get("Holder").static_slots["items"])
    shift = 1 if ctx.plant_failure else 0
    rep.attempted += count
    for index in range(count):
        address = objects.array_get(items, index)
        a, b, c = seeded_fields(index + shift, ctx.seed)
        is_change = index < changed
        good = (
            objects.class_of(address).name
            == ("Change" if is_change else "NoChange")
            and objects.read_field(address, "a") == a
            and objects.read_field(address, "b") == b
            and objects.read_field(address, "c") == c
            and (not is_change or objects.read_field(address, "d") == 0)
        )
        if not good:
            rep.fail(f"{mode}: object {index} lost its seeded fields")
    rep.note_vm(vm)
    rep.note_pauses()
    return fingerprint_digest(vm)


def repetition(ctx: Ctx, mode: str) -> Rep:
    if ctx.repetition < 0:
        # Warm-up: the other mode, kept only for its end state.
        other = Rep()
        digest = run_mode(ctx, other, "lazy" if mode == "eager" else "eager")
        return Rep(attempted=other.attempted, failed=other.failed,
                   failures=other.failures,
                   sim={"sim.heap_fingerprint": digest})
    rep = Rep()
    rep.sim["sim.heap_fingerprint"] = run_mode(ctx, rep, mode)
    return rep


def repetition_eager(ctx: Ctx) -> Rep:
    return repetition(ctx, "eager")


def repetition_lazy(ctx: Ctx) -> Rep:
    return repetition(ctx, "lazy")
