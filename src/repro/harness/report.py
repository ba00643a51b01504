"""Regenerate every paper table and figure, once, and gate its shape.

``repro report`` walks ``FIGURES`` once: each entry is a plain function
returning ``(text, problems)`` — the rendered artifact and the ways its
shape departs from the paper's. Every text goes to ``<out-dir>/<name>.txt``,
the ones with a heading are also joined into ``REPORT.txt``, and every
problem is printed as ``FIGURE <name>: <problem>`` and fails the run.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import List, Tuple

from . import jettyperf, microbench, pauses, tables
from .updates import harness_main

#: (artifact name, REPORT.txt heading or None, function) — REPORT.txt keeps
#: this order
FIGURES = (
    ("table1_microbench", "Table 1 — DSU pause time (simulated ms)",
     tables.table1_figure),
    ("figure6_pause_curves", "Figure 6 — pause-time curves",
     tables.figure6_figure),
    ("figure5_jetty_perf", "Figure 5 — Jetty throughput and latency",
     jettyperf.figure5_figure),
    ("table2_jetty_updates", "Table 2 — updates to jetty",
     partial(tables.update_table_figure, "jetty")),
    ("table3_javaemail_updates", "Table 3 — updates to javaemail",
     partial(tables.update_table_figure, "javaemail")),
    ("table4_crossftp_updates", "Table 4 — updates to crossftp",
     partial(tables.update_table_figure, "crossftp")),
    ("experience_updates", "Experience — 22 live updates (§4)",
     tables.experience_figure),
    ("pause_sweep", "Pause breakdown — per-phase disruption (§4.1)",
     pauses.pause_sweep_figure),
    ("experience_updates_paper_fidelity", None,
     partial(tables.experience_figure, paper_fidelity=True)),
    ("pause_breakdown", None, microbench.pause_breakdown_figure),
    ("safepoint_acquisition", None, microbench.safepoint_acquisition_figure),
    ("ablation_transformer_cost", None,
     microbench.ablation_transformer_cost_figure),
    ("ablation_eager_vs_lazy", None, jettyperf.ablation_eager_vs_lazy_figure),
    ("ablation_old_copy_space", None,
     microbench.ablation_old_copy_space_figure),
)

#: scale -> figure name -> the sizes that figure runs at. "small" produced
#: the committed artifacts; "full" is the paper's 280k/770k/1.76M/3.67M
#: objects (160-1280 MB heaps) divided by ~70. Figures not named here have
#: one size.
SCALES = {
    "small": {
        "table1_microbench": dict(counts=(2_000, 5_500, 12_500, 26_000),
                                  fractions=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
        "figure6_pause_curves": dict(num_objects=13_000),
        "figure5_jetty_perf": dict(runs=3),
        "pause_breakdown": dict(num_objects=10_000),
        "ablation_transformer_cost": dict(num_objects=8_000),
        "ablation_old_copy_space": dict(num_objects=3_000),
    },
    "full": {
        "table1_microbench": dict(counts=(4_000, 11_000, 25_000, 52_000),
                                  fractions=tuple(i / 10 for i in range(11))),
        "figure6_pause_curves": dict(num_objects=52_000),
        "figure5_jetty_perf": dict(runs=7),
        "pause_breakdown": dict(num_objects=26_000),
        "ablation_transformer_cost": dict(num_objects=20_000),
        "ablation_old_copy_space": dict(num_objects=6_000),
    },
}


def generate_report(
    scale: str = "small", out_dir: str = "benchmark_results"
) -> Tuple[str, List[str]]:
    """Run every figure once at ``scale``, write ``<out_dir>/<name>.txt``
    and ``REPORT.txt``; returns the report and the ``<name>: <problem>``
    lines of every figure whose shape is off."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rule = "=" * 72
    sections: List[str] = []
    problems: List[str] = []
    for name, heading, figure in FIGURES:
        text, found = figure(**SCALES[scale].get(name, {}))
        (out / f"{name}.txt").write_text(text + "\n")
        if heading:
            sections.append(f"{rule}\n{heading}\n{rule}\n{text}\n")
        problems += [f"{name}: {problem}" for problem in found]
    report = "\n".join(sections)
    (out / "REPORT.txt").write_text(report)
    return report, problems


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=tuple(SCALES), default="small")
    parser.add_argument("--out-dir", default="benchmark_results")


def run(args: argparse.Namespace) -> int:
    report, problems = generate_report(args.scale, args.out_dir)
    print(report)
    for problem in problems:
        print(f"FIGURE {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(harness_main(sys.modules[__name__]))
