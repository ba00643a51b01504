"""Regenerate every committed artifact, once, and gate its shape.

``repro report`` walks ``FIGURES`` once: each row names a file in
``benchmark_results/`` and a plain function returning ``(text, problems)``
— the rendered artifact (a paper table or figure, or a ``BENCH_*.json``)
and the ways it departs from the paper's shape or from a soundness
invariant. Every text goes to ``<out-dir>/<name>``, the ones with a
heading are also joined into ``REPORT.txt``, and every problem is printed
as ``FIGURE <name>: <problem>`` and fails the run.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import List, Tuple

from . import endurance, fleet, jettyperf, lazyheap, microbench, pauses, tables

#: (artifact file, REPORT.txt heading or None, function) — REPORT.txt keeps
#: this order. A row whose file and heading are tuples makes several
#: artifacts from one call, one (text, problems) per file: the pause sweep
#: runs once for its table and its JSON.
FIGURES = (
    ("table1_microbench.txt", "Table 1 — DSU pause time (simulated ms)",
     tables.table1_figure),
    ("figure6_pause_curves.txt", "Figure 6 — pause-time curves",
     tables.figure6_figure),
    ("figure5_jetty_perf.txt", "Figure 5 — Jetty throughput and latency",
     jettyperf.figure5_figure),
    ("table2_jetty_updates.txt", "Table 2 — updates to jetty",
     partial(tables.update_table_figure, "jetty")),
    ("table3_javaemail_updates.txt", "Table 3 — updates to javaemail",
     partial(tables.update_table_figure, "javaemail")),
    ("table4_crossftp_updates.txt", "Table 4 — updates to crossftp",
     partial(tables.update_table_figure, "crossftp")),
    ("experience_updates.txt", "Experience — 22 live updates (§4)",
     tables.experience_figure),
    (("pause_sweep.txt", "BENCH_pauses.json"),
     ("Pause breakdown — per-phase disruption (§4.1)", None),
     pauses.pause_figures),
    ("experience_updates_paper_fidelity.txt", None,
     partial(tables.experience_figure, paper_fidelity=True)),
    ("pause_breakdown.txt", None, microbench.pause_breakdown_figure),
    ("safepoint_acquisition.txt", None,
     microbench.safepoint_acquisition_figure),
    ("ablation_transformer_cost.txt", None,
     microbench.ablation_transformer_cost_figure),
    ("ablation_eager_vs_lazy.txt", None,
     jettyperf.ablation_eager_vs_lazy_figure),
    ("ablation_old_copy_space.txt", None,
     microbench.ablation_old_copy_space_figure),
    ("BENCH_lazy.json", None, lazyheap.lazyheap_figure),
    ("BENCH_endurance.json", None, endurance.endurance_figure),
    ("BENCH_fleet.json", None, fleet.fleet_figure),
)

#: scale -> artifact -> the sizes its function runs at. "small" produced
#: the committed artifacts; "full" is the paper's 280k/770k/1.76M/3.67M
#: objects (160-1280 MB heaps) divided by ~70. Artifacts not named here
#: have one size.
SCALES = {
    "small": {
        "table1_microbench.txt": dict(counts=(2_000, 5_500, 12_500, 26_000),
                                      fractions=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
        "figure6_pause_curves.txt": dict(num_objects=13_000),
        "figure5_jetty_perf.txt": dict(runs=3),
        "pause_breakdown.txt": dict(num_objects=10_000),
        "ablation_transformer_cost.txt": dict(num_objects=8_000),
        "ablation_old_copy_space.txt": dict(num_objects=3_000),
    },
    "full": {
        "table1_microbench.txt": dict(counts=(4_000, 11_000, 25_000, 52_000),
                                      fractions=tuple(i / 10 for i in range(11))),
        "figure6_pause_curves.txt": dict(num_objects=52_000),
        "figure5_jetty_perf.txt": dict(runs=7),
        "pause_breakdown.txt": dict(num_objects=26_000),
        "ablation_transformer_cost.txt": dict(num_objects=20_000),
        "ablation_old_copy_space.txt": dict(num_objects=6_000),
    },
}


def generate_report(
    scale: str = "small", out_dir: str = "benchmark_results"
) -> Tuple[str, List[str]]:
    """Run every function once at ``scale``, write ``<out_dir>/<name>``
    and ``REPORT.txt``; returns the report and the ``<name>: <problem>``
    lines of every artifact whose shape is off."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rule = "=" * 72
    sections: List[str] = []
    problems: List[str] = []
    for names, headings, figure in FIGURES:
        made = figure(**SCALES[scale].get(names, {}))
        if isinstance(names, str):  # the usual row: one file, one figure
            names, headings, made = (names,), (headings,), (made,)
        for name, heading, (text, found) in zip(names, headings, made):
            (out / name).write_text(text + "\n")
            if heading:
                sections.append(f"{rule}\n{heading}\n{rule}\n{text}\n")
            problems += [f"{name}: {problem}" for problem in found]
    report = "\n".join(sections)
    (out / "REPORT.txt").write_text(report)
    return report, problems
