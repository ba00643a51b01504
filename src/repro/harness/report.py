"""One-shot regeneration of every paper artifact.

``python -m repro.harness.report`` runs all experiments at a configurable
scale and writes the combined report to ``benchmark_results/REPORT.txt``
(and stdout). The pytest benchmarks under ``benchmarks/`` do the same work
piecewise with assertions; this module is the human-friendly entry point.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

from .jettyperf import run_experiment
from .microbench import run_microbench, sweep
from .pauses import render_pause_table, run_pause_sweep
from .plots import figure6_chart
from .tables import (
    render_experience_table,
    render_figure5,
    render_figure6,
    render_table1,
    render_update_table,
    run_experience_sweep,
)


def generate_report(scale: str = "small", out_dir: str = "benchmark_results") -> str:
    sections: List[str] = []

    def section(title: str, body: str) -> None:
        rule = "=" * 72
        sections.append(f"{rule}\n{title}\n{rule}\n{body}\n")

    if scale == "full":
        counts = (4_000, 11_000, 25_000, 52_000)
        fractions = tuple(i / 10 for i in range(11))
        figure6_objects = 52_000
        perf_runs = 7
    else:
        counts = (2_000, 5_500, 12_500, 26_000)
        fractions = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        figure6_objects = 13_000
        perf_runs = 3

    results = sweep(counts, fractions)
    section("Table 1 — DSU pause time (simulated ms)", render_table1(results))

    figure6_results = [
        run_microbench(figure6_objects, i / 10) for i in range(11)
    ]
    section(
        "Figure 6 — pause-time curves",
        render_figure6(figure6_results, figure6_objects)
        + "\n\n"
        + figure6_chart(figure6_results, figure6_objects),
    )

    summaries = run_experiment(runs=perf_runs)
    section("Figure 5 — Jetty throughput and latency", render_figure5(summaries))

    for app, table in (("jetty", "Table 2"), ("javaemail", "Table 3"),
                       ("crossftp", "Table 4")):
        section(f"{table} — updates to {app}", render_update_table(app))

    outcomes = run_experience_sweep()
    section("Experience — 22 live updates (§4)", render_experience_table(outcomes))

    rows = run_pause_sweep()
    section("Pause breakdown — per-phase disruption (§4.1)",
            render_pause_table(rows))

    report = "\n".join(sections)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "REPORT.txt")
    with open(path, "w") as handle:
        handle.write(report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--out-dir", default="benchmark_results")
    args = parser.parse_args(argv)
    print(generate_report(args.scale, args.out_dir))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
