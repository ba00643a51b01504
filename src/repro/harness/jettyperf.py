"""The Jetty throughput/latency experiment (paper §4.1, Figure 5).

Three configurations, as in the paper:

* ``stock``   — Jetty 5.1.6 on the plain VM;
* ``jvolve``  — Jetty 5.1.6 on a VM with the DSU engine attached (but no
  update applied);
* ``updated`` — Jetty 5.1.5 dynamically updated to 5.1.6 *before* the
  measurement window opens.

The paper drives ~800 connections/s of 5 serial requests for a 40 KB file
for 60 s and reports the median and quartiles over 21 runs. We scale the
rate, file size and duration down (the VM is interpreted Python) and jitter
connection arrival times per run to produce a distribution; the claim under
test is *shape*: all three configurations perform identically in steady
state, because Jvolve adds no code to the steady-state path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from ..apps.jetty.versions import HTTP_PORT
from ..net.httpclient import HttpConnectionClient, HttperfLoad
from ..obs.metrics import nearest_rank
from ..vm.clock import CostModel
from .updates import AppDriver, Figure, failed

CONFIGURATIONS = ("stock", "jvolve", "updated")


@dataclass
class PerfRun:
    configuration: str
    seed: int
    throughput_mb_s: float
    median_latency_ms: float
    completed: int
    failed: int


@dataclass
class PerfSummary:
    configuration: str
    median_throughput: float
    throughput_q1: float
    throughput_q3: float
    median_latency: float
    latency_q1: float
    latency_q3: float
    runs: List[PerfRun]


def _percentile(values: List[float], fraction: float) -> float:
    return nearest_rank(sorted(values), fraction) if values else 0.0


def run_one(
    configuration: str,
    seed: int,
    connections_per_second: float = 40.0,
    duration_ms: float = 1_500.0,
    warmup_ms: float = 300.0,
    requests_per_connection: int = 5,
    costs=None,
) -> PerfRun:
    """One measurement run of one configuration."""
    driver = AppDriver.for_app("jetty", costs=costs)
    if configuration == "updated":
        driver.boot("5.1.5")
        holder = driver.request_update_at(50, "5.1.6")
        driver.run(until_ms=warmup_ms)
        result = holder.get("result")
        if result is None or not result.succeeded:
            raise RuntimeError(
                f"pre-measurement update failed: "
                f"{result.reason if result else 'not requested'}"
            )
    else:
        driver.boot("5.1.6")
        if configuration == "stock":
            # detach the DSU engine: hooks back to plain-VM behaviour
            driver.vm.on_world_stopped = None
            driver.vm.return_barrier_hook = None
        driver.run(until_ms=warmup_ms)

    rng = random.Random(seed)
    interval = 1000.0 / connections_per_second
    start = driver.vm.clock.now_ms + 10
    clients = []
    count = int(duration_ms / interval)
    for index in range(count):
        jitter = rng.uniform(-0.4, 0.4) * interval
        client = HttpConnectionClient(
            driver.vm, HTTP_PORT, "/file.bin", num_requests=requests_per_connection
        )
        client.start(start + index * interval + jitter)
        clients.append(client)
    driver.run(until_ms=start + duration_ms + 500)

    total_bytes = sum(c.bytes_received for c in clients)
    latencies: List[float] = []
    for client in clients:
        latencies.extend(client.latencies_ms)
    completed = sum(1 for c in clients if c.succeeded)
    failed = len(clients) - completed
    throughput = total_bytes / (1024.0 * 1024.0) / (duration_ms / 1000.0)
    return PerfRun(
        configuration,
        seed,
        throughput,
        _percentile(latencies, 0.5),
        completed,
        failed,
    )


def run_experiment(runs: int) -> Dict[str, PerfSummary]:
    """The full Figure-5 experiment: every configuration, ``runs`` times."""
    summaries: Dict[str, PerfSummary] = {}
    for configuration in CONFIGURATIONS:
        results = [run_one(configuration, seed=1000 + i) for i in range(runs)]
        throughputs = [r.throughput_mb_s for r in results]
        latencies = [r.median_latency_ms for r in results]
        summaries[configuration] = PerfSummary(
            configuration,
            _percentile(throughputs, 0.5),
            _percentile(throughputs, 0.25),
            _percentile(throughputs, 0.75),
            _percentile(latencies, 0.5),
            _percentile(latencies, 0.25),
            _percentile(latencies, 0.75),
            results,
        )
    return summaries


def render_figure5(summaries) -> str:
    lines = [
        "Figure 5 — Jetty 5.1.6 throughput and latency (simulated)",
        f"{'configuration':>14s} {'tput MB/s (q1..q3)':>24s} {'latency ms (q1..q3)':>24s}",
    ]
    for name, s in summaries.items():
        tput = f"{s.median_throughput:.3f} ({s.throughput_q1:.3f}..{s.throughput_q3:.3f})"
        lat = f"{s.median_latency:.3f} ({s.latency_q1:.3f}..{s.latency_q3:.3f})"
        lines.append(f"{name:>14s} {tput:>24s} {lat:>24s}")
    return "\n".join(lines)


def figure5_figure(runs: int) -> Figure:
    """Figure 5 (E2): no steady-state overhead — the two Jvolve
    configurations perform like stock, an updated server like a fresh one."""
    summaries = run_experiment(runs=runs)
    stock = summaries["stock"]
    checks = [
        (s.median_throughput > 0 and not any(run.failed for run in s.runs),
         f"{name}: no throughput, or a run with failed connections")
        for name, s in summaries.items()
    ]
    for name in ("jvolve", "updated"):
        s = summaries[name]
        checks += [
            (abs(s.median_throughput - stock.median_throughput)
             < 0.05 * stock.median_throughput,
             f"{name}: median throughput not within 5% of stock"),
            (abs(s.median_latency - stock.median_latency)
             <= max(0.05 * stock.median_latency, 0.5),
             f"{name}: median latency not within 5% (or 0.5 ms) of stock"),
        ]
    return render_figure5(summaries), failed(checks)


def ablation_eager_vs_lazy_figure() -> Figure:
    """§3.5 / §5 (E8): JDrums and DVM trap object accesses through a handle
    space on every execution (~10%), modelled as a 10% per-instruction
    surcharge on one Jetty load; Jvolve's eager model pays at update time."""

    def serve(instruction_cycles: int):
        """(busy cycles per request, failed connections) under the load."""
        driver = AppDriver.for_app("jetty", costs=CostModel(
            instruction=instruction_cycles, cycles_per_ms=200_000,
        )).boot("5.1.6").run(until_ms=100)
        busy_before = driver.vm.clock.busy_cycles
        load = HttperfLoad(
            driver.vm, HTTP_PORT, "/file.bin",
            connections_per_second=30, duration_ms=800, start_ms=120,
        )
        driver.run(until_ms=2_000)
        requests = sum(len(c.latencies_ms) for c in load.clients)
        return ((driver.vm.clock.busy_cycles - busy_before) / requests,
                len(load.failed_connections))

    (eager_cost, eager_failed), (lazy_cost, lazy_failed) = serve(10), serve(11)
    overhead = lazy_cost / eager_cost - 1.0
    text = "\n".join([
        "Ablation: eager (Jvolve) vs lazy (JDrums/DVM-style) updating",
        f"  eager cycles per request: {eager_cost:10.0f}",
        f"  lazy  cycles per request: {lazy_cost:10.0f}",
        f"  steady-state tax of lazy indirection: {overhead:+.1%}",
        "  (paper §5: JDrums traps all object pointer dereferences; DVM's",
        "  interpreter pays ~10%. Jvolve pays at update time instead — see",
        "  table1_microbench for that side of the trade.)",
    ])
    return text, failed([
        (eager_failed + lazy_failed == 0, "a connection failed under the load"),
        (0.02 <= overhead <= 0.15,
         "the lazy tax is outside +2%..+15% (paper ~10%)"),
    ])
