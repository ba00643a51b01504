#!/usr/bin/env python3
"""The wall-clock benchmark's one command.

For people::

    python3 bench/run.py                       # all six workloads, untraced
    python3 bench/run.py --workload heap_eager # one workload
    python3 bench/run.py --trace               # the layer-by-layer run
    python3 bench/run.py --runs 5 --out a.json # five seeds per workload,
                                               # kept for bench/compare.py

For the driver (``BENCHMARK.json``'s ``command``)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

whose last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.

Each workload runs in its own fresh, single-threaded subprocess, one at a
time, started with ``PYTHONHASHSEED=0`` and ``src/`` on ``PYTHONPATH``
(so plain ``python3 bench/run.py`` works from a checkout). The exit code
is non-zero when any check fails, and when there is no ``src/repro`` to
measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="the separate traced run: per-layer metrics "
                             "and a Chrome trace under bench/out/")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds SEED, SEED+1, ... "
                             "(bench/compare.py wants several)")
    parser.add_argument("--out", help="write every result as JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for bench/test_bench.py")
    parser.add_argument("--plant-failure", action="store_true",
                        help="use a deliberately wrong reference "
                             "(bench/test_bench.py)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--import-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    paths = [SRC_DIR, BENCH_DIR]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, name: str, seed: int, seconds: float,
              result_file: str) -> int:
    """One workload, one fresh interpreter; its output passes through."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--out", result_file,
    ]
    if args.quick:
        command.append("--quick")
    if args.plant_failure:
        command.append("--plant-failure")
    return subprocess.run(command, env=child_environment()).returncode


def child_main(args) -> int:
    import runner

    result = runner.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        quick=args.quick, plant_failure=args.plant_failure, out_dir=OUT_DIR,
    )
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(runner.describe(result))
    print(runner.result_line(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"bench/run.py: nothing to measure — {SRC_DIR}/repro is "
              f"missing", file=sys.stderr)
        return 2
    if args.import_only:
        import runner  # noqa: F401 — the import is the measurement
        return 0
    if args.child:
        return child_main(args)

    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"bench/run.py: unknown workload {args.workload!r}; "
                  f"choose from {', '.join(names)}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.quick else float(spec["run_seconds"])
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    status = 0
    results = []
    for name in names:
        result_file = os.path.join(
            OUT_DIR, f"{name}.{'traced' if args.trace else 'untraced'}.json"
        )
        for seed in range(args.seed, args.seed + args.runs):
            if os.path.exists(result_file):
                os.remove(result_file)
            code = run_child(args, name, seed, seconds, result_file)
            status = status or code
            if args.out and os.path.exists(result_file):
                with open(result_file) as handle:
                    results.append(json.load(handle))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"benchmark": "bench", "clock": "host",
                       "results": results}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
