#!/usr/bin/env python3
"""Re-record ``oracle.json`` and ``baseline.json``.

Only a ``[benchmark]`` change runs this: after it is accepted the baseline
is measured again (choosing-metrics §6.2), and the simulated values every
later change is checked against are committed with it.

    python3 bench/record.py            # ~25 min: 10 untraced runs and one
                                       # traced run per workload

* ``oracle.json`` — per workload and seed (0, 1, 2): the simulated values
  a run must reproduce exactly (``sim.*``, ``sim_pause_ms_*``, the heap
  fingerprint). ``run.py`` prints ``oracle: match`` or the drift.
* ``baseline.json`` — per workload: median and quartiles of every
  end-to-end metric over seeds 0–9, the per-layer metrics of one traced run
  on seed 0, and provenance. ``"claim": null`` — defining a benchmark
  claims no gain.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from compare import quartiles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ORACLE_SEEDS = (0, 1, 2)


def run(out: str, *flags: str) -> dict:
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--seed", "0", "--out", out, *flags]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    with open(out) as handle:
        return json.load(handle)


def summary(values):
    q1, mid, q3 = quartiles(values)
    return {"median": mid, "q1": q1, "q3": q3, "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        untraced = run(os.path.join(scratch, "untraced.json"),
                       "--runs", str(args.runs))["results"]
        traced = run(os.path.join(scratch, "traced.json"),
                     "--trace")["results"]
    if not all(result["correct"] for result in untraced + traced):
        print("bench/record.py: a run had failed checks; nothing recorded",
              file=sys.stderr)
        return 1

    oracle: dict = {}
    baseline: dict = {}
    for result in untraced:
        name, seed = result["workload"], result["provenance"]["seed"]
        if seed in ORACLE_SEEDS:
            oracle.setdefault(name, {})[str(seed)] = result["sim"]
        row = baseline.setdefault(name, {"end_to_end": {}, "per_layer": {}})
        for metric, value in result["end_to_end"].items():
            row["end_to_end"].setdefault(metric, []).append(value)
    for row in baseline.values():
        row["end_to_end"] = {
            metric: summary(values)
            for metric, values in row["end_to_end"].items()
        }
    for result in traced:
        baseline[result["workload"]]["per_layer"] = result["per_layer"]

    with open(os.path.join(BENCH_DIR, "oracle.json"), "w") as handle:
        json.dump({"size": "full", "workloads": oracle}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    with open(os.path.join(BENCH_DIR, "baseline.json"), "w") as handle:
        json.dump({
            "claim": None,
            "clock": "host",
            "provenance": untraced[0]["provenance"],
            "units": untraced[0]["units"],
            "workloads": baseline,
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
