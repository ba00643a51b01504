"""Runs one workload inside the workload's own subprocess.

``run.py`` starts this with ``PYTHONHASHSEED=0`` and ``src/`` on the path.
One call to :func:`run_workload` = one discarded warm-up repetition, then
timed repetitions on fresh VMs until ``seconds`` have passed, then the
checks, the medians and the result document.

Untraced run (``trace=False``): end-to-end metrics. Workloads that have
no stock configuration of their own also carry the interp_mix ratio probe
for a fixed share of the run, so ``attached_ratio`` / ``armed_ratio`` exist
in every row.

Traced run (``trace=True``): repetitions alternate untraced / traced. The
traced ones record spans through :class:`common.Probe`; per-layer metrics
are medians over them, ``obs.tracing_overhead_pct`` compares the two
halves' ``wall_s``, and the first traced repetition is written out as a
Chrome ``trace_event`` file.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import Tracer
from repro.obs.export import chrome_trace

from common import (
    Ctx,
    Probe,
    Rep,
    SpanTotals,
    median,
    new_tracer,
    percentile,
)
from layers import layer_metrics
from workloads import WORKLOADS, Workload
from workloads.interp_mix import ratio_probe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
ORACLE_PATH = os.path.join(BENCH_DIR, "oracle.json")

#: share of an untraced run spent on the ratio probe (workloads without
#: their own stock/attached/armed configurations)
PROBE_SHARE = 0.25
PROBE_ROUNDS = 30
PROBE_SLICE_INSTRUCTIONS = 12_000

IMPORT_SAMPLES = 3
#: three, so that a per-slot median over repetitions is a measured value
#: with one sample either side of it, not the mean of two
MIN_REPETITIONS = 3


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def import_seconds(samples: int) -> List[float]:
    """Host seconds for a fresh interpreter to import everything the
    workloads use — measured in throwaway subprocesses, because this
    process has already paid it and a median needs more than one sample."""
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--import-only"]
    values = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        values.append(time.perf_counter() - start)
    return values


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load_1min = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "git_commit": commit,
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", ""),
        "loadavg_1min": load_1min,
        "load_warning": load_1min > nproc,
    }


def _traced_repetition(workload: Workload, ctx: Ctx):
    """One repetition under a root span; returns ``(rep, tracer)``."""
    tracer = new_tracer()
    ctx.probe = Probe(tracer)
    with tracer.span("bench.repetition", "bench", workload=workload.name,
                     repetition=ctx.repetition, seed=ctx.seed):
        rep = workload.repetition(ctx)
    ctx.probe = Probe()
    return rep, tracer


def _sim_mismatches(reps: List[Rep]) -> List[str]:
    """Same seed, same simulated behaviour: every repetition must agree
    exactly on every simulated value it shares with the first."""
    problems = []
    reference = reps[0].sim
    for index, rep in enumerate(reps[1:], start=1):
        for key in sorted(set(reference) & set(rep.sim)):
            if rep.sim[key] != reference[key]:
                problems.append(
                    f"{key}: repetition {index} gave {rep.sim[key]!r}, "
                    f"repetition 0 gave {reference[key]!r}"
                )
    return problems


def _slot_medians(reps: List[Rep], attribute: str) -> List[float]:
    """Per update slot, the median over its samples in every repetition.
    Percentiles are then taken across slots, so they do not depend on how
    many repetitions a run had time for, and a tail value is the median of
    repeated measurements of one update rather than one noisy sample."""
    samples: Dict[str, List[float]] = {}
    for rep in reps:
        for slot, value in getattr(rep, attribute).items():
            samples.setdefault(slot, []).extend(
                value if isinstance(value, list) else [value]
            )
    return [median(values) for values in samples.values()]


def _oracle_drift(name: str, seed: int, quick: bool,
                  sim: Dict[str, object]) -> Optional[List[str]]:
    """Compare against the committed simulated values; ``None`` when this
    (size, seed) has none. Drift is reported, never failed: a change that
    shifts simulated behaviour on purpose must be *visible*, and only a
    ``[benchmark]`` change may re-record the file."""
    if quick or not os.path.exists(ORACLE_PATH):
        return None
    with open(ORACLE_PATH) as handle:
        recorded = json.load(handle)["workloads"].get(name, {}).get(str(seed))
    if recorded is None:
        return None
    return [
        f"{key}: measured {sim.get(key)!r}, recorded {value!r}"
        for key, value in sorted(recorded.items())
        if sim.get(key) != value
    ]


@dataclass
class Measured:
    """Everything the repetition loop of one run produced."""

    warmup: Rep
    reps: List[Rep] = field(default_factory=list)
    #: parallel to ``reps``: was that repetition traced
    traced: List[bool] = field(default_factory=list)
    #: per traced repetition: its per-layer metrics
    layer_rows: List[Dict[str, float]] = field(default_factory=list)
    #: ratio-probe results (workloads without their own configurations)
    probes: List[Rep] = field(default_factory=list)
    trace_problems: List[str] = field(default_factory=list)
    first_tracer: Optional[Tracer] = None
    seconds: float = 0.0

    @property
    def untraced(self) -> List[Rep]:
        return [rep for rep, flag in zip(self.reps, self.traced) if not flag]


def _measure(workload: Workload, ctx: Ctx, seconds: float,
             trace: bool) -> Measured:
    """One discarded warm-up repetition, then timed repetitions (odd ones
    traced when ``trace``): as many as bring the measured time closest to
    ``seconds``, so a workload whose repetition is a large share of the run
    does not flip between two counts on a small change in host speed."""
    ctx.repetition = -1
    run = Measured(warmup=workload.repetition(ctx))
    probe_s = 0.0
    begin = time.perf_counter()
    while True:
        ctx.repetition = len(run.reps)
        gc.collect()  # the previous repetition's VMs go before this one's come
        traced = trace and ctx.repetition % 2 == 1
        if traced:
            rep, tracer = _traced_repetition(workload, ctx)
            totals = SpanTotals()
            for root in tracer.roots:
                totals.add(root)
            run.layer_rows.append(layer_metrics(totals, rep))
            run.trace_problems.extend(tracer.validate())
            if totals.overfull:
                run.trace_problems.append(
                    f"{totals.overfull} span(s) shorter than their children"
                )
            if run.first_tracer is None:
                run.first_tracer = tracer
        else:
            rep = workload.repetition(ctx)
        run.reps.append(rep)
        run.traced.append(traced)
        if not trace and not workload.own_ratios:
            while probe_s < PROBE_SHARE * (time.perf_counter() - begin):
                probe_rep = Rep()
                probe_s += ratio_probe(
                    ctx, probe_rep, 2 if ctx.quick else PROBE_ROUNDS,
                    PROBE_SLICE_INSTRUCTIONS,
                )
                run.probes.append(probe_rep)
        elapsed = time.perf_counter() - begin
        per_repetition = elapsed / len(run.reps)
        if (len(run.reps) >= MIN_REPETITIONS
                and elapsed + per_repetition / 2 > seconds):
            break
    run.seconds = time.perf_counter() - begin
    return run


def _end_to_end(run: Measured, imports: List[float],
                sim: Dict[str, object]) -> Dict[str, float]:
    untraced = run.untraced
    applies = _slot_medians(untraced, "apply_ms")
    return {
        "setup_s": median(imports) + median([rep.setup_s for rep in untraced]),
        "wall_s": median([rep.wall_s for rep in untraced]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instr_per_s": median([
            rep.instructions / rep.instruction_s for rep in untraced
            if rep.instruction_s
        ]),
        "requests_per_s": median([
            rep.requests / rep.request_s for rep in untraced if rep.request_s
        ]),
        "attached_ratio": median(
            [r for rep in run.reps + run.probes for r in rep.attached_ratios]
        ),
        "armed_ratio": median(
            [r for rep in run.reps + run.probes for r in rep.armed_ratios]
        ),
        "offline_ms_p50": median(_slot_medians(untraced, "offline_ms")),
        "apply_ms_p50": median(applies),
        "apply_ms_p90": percentile(applies, 0.90),
        "objects_per_s": median(_slot_medians(untraced, "object_rates")),
        "sim_pause_ms_p50": sim.get("sim_pause_ms_p50", 0.0),
        "sim_pause_ms_max": sim.get("sim_pause_ms_max", 0.0),
    }


def _per_layer(run: Measured, extras: Dict[str, float], wall_s: float,
               sim: Dict[str, object], failed_share: float,
               spec: dict) -> Dict[str, float]:
    """Medians over the traced repetitions, in ``BENCHMARK.json``'s order;
    a layer the workload never entered reports 0."""
    names = {key for row in run.layer_rows for key in row}
    values = {
        key: median([row[key] for row in run.layer_rows if key in row])
        for key in names
    }
    values.update(extras)
    traced_wall = median(
        [rep.wall_s for rep, flag in zip(run.reps, run.traced) if flag]
    )
    values["obs.tracing_overhead_pct"] = (
        (traced_wall / wall_s - 1.0) * 100.0 if wall_s else 0.0
    )
    for key in ("sim.instructions", "sim.cycles", "sim.pause_ms_total"):
        values[key] = sim.get(key, 0)
    values["failed_share"] = failed_share
    return {
        metric["name"]: float(values.get(metric["name"], 0.0))
        for metric in spec["per_layer"]
    }


def _write_trace(tracer: Tracer, out_dir: str, name: str, seed: int) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.trace.json")
    document = chrome_trace(tracer, process_name=f"bench:{name}")
    document["otherData"] = {
        "clock": "host", "unit": "1us = 1 host us (perf_counter)",
        "workload": name, "seed": seed,
    }
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return path


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    plant_failure: bool = False,
    out_dir: Optional[str] = None,
) -> dict:
    spec = load_spec()
    workload = WORKLOADS[name]
    seed = abs(seed)  # the programs' arithmetic stays non-negative
    ctx = Ctx(seed=seed, quick=quick, plant_failure=plant_failure)
    imports = import_seconds(1 if quick else IMPORT_SAMPLES)
    run = _measure(workload, ctx, seconds, trace)

    # Traced run only: one-off layer probes (interp_mix's kernels).
    extras: Dict[str, float] = {}
    extras_rep = Rep()
    if trace and workload.layer_extras is not None:
        extras = workload.layer_extras(ctx, extras_rep)

    # -- checks ---------------------------------------------------------------
    everything = [run.warmup] + run.reps + run.probes + [extras_rep]
    attempted = sum(rep.attempted for rep in everything)
    failed = sum(rep.failed for rep in everything)
    failures = [reason for rep in everything for reason in rep.failures]
    verdicts = [("determinism", _sim_mismatches([run.warmup] + run.reps))]
    if trace:
        verdicts.append(("trace", run.trace_problems))
    for label, problems in verdicts:
        attempted += 1
        if problems:
            failed += 1
            failures.extend(f"{label}: {line}" for line in problems[:10])
    sim = dict(run.reps[0].sim)
    drift = _oracle_drift(name, seed, quick, sim)

    # -- metrics --------------------------------------------------------------
    end_to_end = _end_to_end(run, imports, sim)
    per_layer = (
        _per_layer(run, extras, end_to_end["wall_s"], sim,
                   failed / attempted, spec)
        if trace else {}
    )
    trace_file = None
    if run.first_tracer is not None and out_dir is not None:
        trace_file = _write_trace(run.first_tracer, out_dir, name, seed)
    untraced = run.untraced
    return {
        "workload": name,
        "trace": trace,
        "quick": quick,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "units": {
            metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]
        },
        "samples": {
            "repetitions": len(run.reps),
            "untraced_repetitions": len(untraced),
            "import_samples": len(imports),
            "ratio_rounds": sum(
                len(rep.attached_ratios) for rep in run.reps + run.probes
            ),
            "ratio_probes": len(run.probes),
            "update_slots": len(untraced[0].apply_ms),
        },
        "sim": sim,
        "oracle": (
            "absent" if drift is None else "drift" if drift else "match"
        ),
        "oracle_drift": drift or [],
        "measured_s": run.seconds,
        "requested_s": seconds,
        "trace_file": trace_file,
        "provenance": provenance(seed),
    }


def result_line(result: dict) -> str:
    """The driver's contract: the last line of standard output."""
    chosen = result["per_layer"] if result["trace"] else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in chosen.items()
        },
    })


def describe(result: dict) -> str:
    """Every metric by name with its unit, for people."""
    lines = []
    info = result["provenance"]
    lines.append(
        f"== {result['workload']}  seed={info['seed']}  "
        f"{'traced' if result['trace'] else 'untraced'}"
        f"{'  quick' if result['quick'] else ''}  "
        f"repetitions={result['samples']['repetitions']}  "
        f"measured {result['measured_s']:.1f}s of "
        f"{result['requested_s']:.0f}s requested"
    )
    lines.append(
        f"   python {info['python']}  nproc={info['nproc']}  "
        f"load(1min)={info['loadavg_1min']:.2f}  "
        f"commit={info['git_commit'][:12]}  "
        f"PYTHONHASHSEED={info['pythonhashseed']}"
    )
    if info["load_warning"]:
        lines.append(
            "   WARNING: 1-min load average exceeds nproc — host timings "
            "from this run are suspect"
        )
    units = result["units"]
    for name, value in result["end_to_end"].items():
        lines.append(f"   {name:<34s} {value:>16.6g} {units[name]}")
    samples = result["samples"]
    lines.append(
        f"   samples: {samples['update_slots']} update slot(s), each a "
        f"median over {samples['untraced_repetitions']} repetitions; "
        f"ratio rounds={samples['ratio_rounds']} "
        f"(probes={samples['ratio_probes']})"
    )
    for name, value in result["per_layer"].items():
        lines.append(f"   {name:<46s} {value:>16.6g} {units[name]}")
    lines.append(
        f"   failed_share = {result['failed']}/{result['attempted']}"
        f" = {result['failed_share']:.6g}   oracle: {result['oracle']}"
    )
    for line in result["oracle_drift"]:
        lines.append(f"   oracle drift: {line}")
    for line in result["failures"]:
        lines.append(f"   FAILED: {line}")
    if result["trace_file"]:
        lines.append(f"   trace: {result['trace_file']}")
    return "\n".join(lines)
