#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/run.py --runs 5 --out parent.json     # on the parent
    python3 bench/run.py --runs 5 --out change.json     # on the change
    python3 bench/compare.py parent.json change.json

    python3 bench/compare.py --self                     # same code twice

For every workload × end-to-end metric it prints both medians with their
quartiles, the ratio (change ÷ parent, parent is the base) and a verdict
against the bound fixed in ``BENCHMARK.json``:

``pass``
    the change's median is no worse than the parent's by more than the
    bound;
``regressed``
    it is worse by more than the bound;
``unresolved``
    the parent's own run-to-run spread (quartile distance ÷ median) is
    wider than the bound, so the comparison cannot tell — unless every run
    of the change reads better than every run of the parent, which passes.

``sim_*`` metrics and ``failed_share`` are deterministic: any difference is
printed as ``differs`` beside the verdict, because a change meant only to
speed the host up must leave them identical. The exit code is 1 when any
row regressed or any run had failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def load_runs(path: str) -> Dict[str, List[dict]]:
    with open(path) as handle:
        document = json.load(handle)
    runs: Dict[str, List[dict]] = {}
    for result in document["results"]:
        if not result["trace"]:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> str:
    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    if better == "higher":
        worse_by = (base_median - change_median) / base_median
        all_better = min(change) > max(base)
    else:
        worse_by = (change_median - base_median) / base_median
        all_better = max(change) < min(base)
    base_spread = (q3 - q1) / base_median if base_median else 0.0
    if base_spread > bound and not all_better:
        return "unresolved"
    return "regressed" if worse_by > bound else "pass"


def compare(base_runs: Dict[str, List[dict]],
            change_runs: Dict[str, List[dict]], spec: dict) -> int:
    status = 0
    header = (f"{'workload':<14s} {'metric':<18s} "
              f"{'parent median [q1, q3]':>36s} "
              f"{'change median [q1, q3]':>36s} "
              f"{'ratio':>8s} {'bound':>6s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in (w["name"] for w in spec["workloads"]):
        base, change = base_runs.get(workload), change_runs.get(workload)
        if not base or not change:
            print(f"{workload:<14s} missing from one side — not compared")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name] for run in base]
            b = [run["end_to_end"][name] for run in change]
            aq1, am, aq3 = quartiles(a)
            bq1, bm, bq3 = quartiles(b)
            outcome = verdict(a, b, metric["better"], metric["bound"])
            if name.startswith("sim_") and am != bm:
                outcome += " (differs)"
            if outcome.startswith("regressed"):
                status = 1
            print(f"{workload:<14s} {name:<18s} "
                  f"{am:>12.6g} [{aq1:>9.4g}, {aq3:>9.4g}] "
                  f"{bm:>12.6g} [{bq1:>9.4g}, {bq3:>9.4g}] "
                  f"{bm / am if am else float('nan'):>8.4f} "
                  f"{metric['bound'] * 100:>5.0f}%  {outcome}")
        a_failed = max(run["failed_share"] for run in base)
        b_failed = max(run["failed_share"] for run in change)
        outcome = "pass" if a_failed == b_failed == 0 else "regressed"
        if a_failed != b_failed:
            outcome += " (differs)"
        if outcome.startswith("regressed"):
            status = 1
        print(f"{workload:<14s} {'failed_share':<18s} {a_failed:>36.6g} "
              f"{b_failed:>36.6g} {'':>8s} {'0 abs':>6s}  {outcome}")
        print(f"{workload:<14s} runs: parent {len(base)}, change "
              f"{len(change)}; ratio = change ÷ parent")
    return status


def run_set(path: str, runs: int, seconds, quick: bool) -> None:
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--runs", str(runs), "--out", path]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if quick:
        command.append("--quick")
    subprocess.run(command, check=False, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*",
                        help="parent.json change.json (from run.py --out)")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="run two sets of the current code back to back "
                             "and compare them")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload and set for --self")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    if args.self_check:
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
            paths = [os.path.join(scratch, f"set{i}.json") for i in (0, 1)]
            for path in paths:
                run_set(path, args.runs, args.seconds, args.quick)
            return compare(load_runs(paths[0]), load_runs(paths[1]), spec)
    if len(args.files) != 2:
        parser.error("give two result files, or --self")
    return compare(load_runs(args.files[0]), load_runs(args.files[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
