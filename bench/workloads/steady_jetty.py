"""``steady_jetty`` — the paper's Figure 5 in host time.

Jetty 5.1.6 serves 40 connections/s, each 5 serial ``GET /file.bin``, for
2 simulated seconds per repetition; arrivals carry a seeded ±40% jitter
(the shape of ``harness.jettyperf.run_one``). Short windows, many
repetitions: the paired rounds a run collects depend only on its total
time, while the per-repetition medians and the two update samples a
repetition yields want as many repetitions as the time allows.

Load is open-loop **in simulated time**: every connection is scheduled up
front on the VM's event queue. On the host the window is a fixed batch of
work, so host metrics are work-per-host-second, not a latency-limit
search.

Four fresh servers per repetition get the identical schedule:

* ``stock``          — 5.1.6, no engine;
* ``attached``       — 5.1.6, ``UpdateEngine(vm)``, no update;
* ``updated_eager``  — 5.1.5 updated to 5.1.6 before the window;
* ``updated_lazy``   — the same update with ``transform="lazy"``, epoch
  drained before the window.

The window advances in 100-simulated-ms slices interleaved across the four
VMs (ABCD, DCBA, ...); one paired round = the same slice on each VM. A
server under traffic idles between requests, so a lazy epoch cannot stay
open here: this workload's ``armed_ratio`` is ``updated_lazy`` ÷ ``stock``,
what the barrier leaves behind once disarmed. About half the host time is
scheduler, natives and ``net`` rather than dispatch.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from repro.api import VM, UpdatePolicy
from repro.apps.registry import APPS
from repro.net.httpclient import HttpConnectionClient

from common import (
    APPLIED,
    Ctx,
    Rep,
    apply_update,
    boot_vm,
    compile_traced,
    median,
    offline_prepare,
    rate_ratios,
    run_paired_rounds,
    timed,
)

VARIANTS = ("stock", "attached", "updated_eager", "updated_lazy")
OLD, NEW = "5.1.5", "5.1.6"

CONNECTIONS_PER_S = 40.0
REQUESTS_PER_CONNECTION = 5
WINDOW_MS = 2_000.0
QUICK_WINDOW_MS = 500.0
SLICE_MS = 100.0
#: slices after the last arrival so every connection finishes
DRAIN_SLICES = 5
WARMUP_MS = 300.0
HEAP_CELLS = 1 << 17

#: the served file: written by the benchmark before boot (the app only
#: creates it when absent), so its length is an input, not an output
BODY_BYTES = 2_048
#: response headers are the app's business; this only bounds them
MAX_HEADER_BYTES = 512


def file_body(seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                   for _ in range(BODY_BYTES))


def schedule_connections(vm: VM, seed: int, window_ms: float,
                         start_ms: float) -> List[HttpConnectionClient]:
    rng = random.Random(seed)
    interval = 1000.0 / CONNECTIONS_PER_S
    clients = []
    for index in range(int(window_ms / interval)):
        jitter = rng.uniform(-0.4, 0.4) * interval
        client = HttpConnectionClient(
            vm, APPS["jetty"].port, "/file.bin",
            num_requests=REQUESTS_PER_CONNECTION,
        )
        client.start(start_ms + index * interval + jitter)
        clients.append(client)
    return clients


def check_clients(rep: Rep, clients: List[HttpConnectionClient],
                  label: str, body_bytes: int = BODY_BYTES) -> int:
    """One op per request; returns requests completed correctly."""
    good = 0
    for client in clients:
        rep.attempted += client.num_requests
        ok_statuses = sum(1 for status in client.statuses if status == 200)
        body = body_bytes * client.num_requests
        sized = body <= client.bytes_received < (
            body + MAX_HEADER_BYTES * client.num_requests
        )
        if ok_statuses == client.num_requests and sized and not client.failed:
            good += client.num_requests
        else:
            rep.fail(
                f"{label}: connection got statuses {client.statuses}, "
                f"{client.bytes_received} bytes, failure {client.failed}",
                client.num_requests - min(ok_statuses, client.num_requests)
                or 1,
            )
    return good


def repetition(ctx: Ctx) -> Rep:
    rep = Rep()
    probe = ctx.probe
    window_ms = QUICK_WINDOW_MS if ctx.quick else WINDOW_MS
    info = APPS["jetty"]

    # -- set-up: compile, boot, warm up, update the two updated servers --
    setup_start = time.perf_counter()
    new_classfiles = compile_traced(probe, info.versions[NEW],
                                    f"<jetty {NEW}>", NEW)
    old_classfiles = compile_traced(probe, info.versions[OLD],
                                    f"<jetty {OLD}>", OLD)
    vms: Dict[str, VM] = {}
    results = {}
    for variant in VARIANTS:
        updated = variant.startswith("updated")
        vm, engine = boot_vm(
            probe, old_classfiles if updated else new_classfiles,
            info.main_class, HEAP_CELLS, with_engine=variant != "stock",
            files={"/www/file.bin": file_body(ctx.seed)},
        )
        probe.run_vm(vm, until_ms=WARMUP_MS)
        if updated:
            prepared = offline_prepare(
                probe, old_classfiles, info.versions[NEW], OLD, NEW,
                info.transformer_overrides.get((OLD, NEW)), own_section=True,
            )
            rep.note_offline(variant, prepared.offline_ms)
            mode = "lazy" if variant == "updated_lazy" else "eager"
            result, _ = apply_update(
                probe, vm, engine, prepared.prepared,
                UpdatePolicy(transform=mode), rep, variant, own_section=True,
            )
            rep.check(result.status == APPLIED and engine.lazy_epoch is None,
                      f"{variant}: update {result.status} ({result.reason})")
            rep.note_result(result)
            results[variant] = result
            probe.run_vm(vm, until_ms=vm.clock.now_ms + WARMUP_MS)
        vms[variant] = vm
    starts = {variant: vm.clock.now_ms + 10.0 for variant, vm in vms.items()}
    clients = {
        variant: schedule_connections(vm, ctx.seed, window_ms,
                                      starts[variant])
        for variant, vm in vms.items()
    }
    rep.setup_s = time.perf_counter() - setup_start

    # -- timed: the window, slice by slice across the four servers -------
    slices = int(window_ms / SLICE_MS) + DRAIN_SLICES
    with timed() as watch:
        samples = run_paired_rounds(
            probe, vms, slices,
            lambda variant, index: {
                "until_ms": starts[variant] + (index + 1) * SLICE_MS
            },
        )
    rep.wall_s = watch.seconds

    # -- references and rates --------------------------------------------
    body_bytes = 2 * BODY_BYTES if ctx.plant_failure else BODY_BYTES
    completed = {
        variant: check_clients(rep, clients[variant], variant, body_bytes)
        for variant in VARIANTS
    }
    arrivals = slices - DRAIN_SLICES  # the drain slices are nearly idle
    rep.attached_ratios = rate_ratios(samples, "attached", rounds=arrivals)
    rep.armed_ratios = rate_ratios(samples, "updated_lazy", rounds=arrivals)
    rep.layer["steady.updated_eager_ratio"] = median(
        rate_ratios(samples, "updated_eager", rounds=arrivals)
    )
    rep.layer["steady.updated_lazy_ratio"] = median(rep.armed_ratios)
    rep.instructions = sum(n for n, _ in samples["attached"])
    rep.instruction_s = sum(t for _, t in samples["attached"])
    rep.requests = completed["attached"]
    rep.request_s = rep.instruction_s
    rep.check(
        sum(n for n, _ in samples["stock"]) == rep.instructions,
        "stock and attached retired different instruction counts",
    )

    attached = clients["attached"]
    latencies = [ms for client in attached for ms in client.latencies_ms]
    received = sum(client.bytes_received for client in attached)
    rep.layer["net.requests"] = sum(len(c.statuses) for c in attached)
    rep.layer["net.bytes"] = received
    rep.layer["net.sim_latency_ms_p50"] = median(latencies)
    rep.layer["net.sim_throughput_mb_s"] = (
        received / (1024.0 * 1024.0) / (window_ms / 1000.0)
    )
    for vm in vms.values():
        rep.note_vm(vm)
    rep.note_pauses()
    return rep
