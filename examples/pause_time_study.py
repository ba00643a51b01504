#!/usr/bin/env python3
"""Study how the update pause scales (the paper's Table 1 / Figure 6, in
miniature, with an ASCII chart).

Runs the Change/NoChange microbenchmark over a small grid and prints the
three curves the paper plots: GC time, transformer time, and total pause,
against the fraction of updated objects.

Run:  python examples/pause_time_study.py [num_objects]
"""

import sys

from repro.harness.microbench import run_microbench
from repro.harness.plots import figure6_chart
from repro.harness.tables import render_figure6


def main() -> None:
    num_objects = int(sys.argv[1]) if len(sys.argv) > 1 else 6_000
    fractions = [i / 10 for i in range(11)]
    print(f"measuring update pauses for {num_objects} objects "
          f"(fractions 0%..100%)...")
    results = [run_microbench(num_objects, f) for f in fractions]

    print()
    print(render_figure6(results))
    print()
    print(figure6_chart(results))
    print()

    base = results[0]
    full = results[-1]
    print("headline ratios (paper values in parentheses):")
    print(f"  GC at 100% vs 0% updated:    {full.gc_ms / base.gc_ms:.2f}x  (~1.98x)")
    print(f"  total pause 100% vs 0%:      "
          f"{full.total_pause_ms / base.total_pause_ms:.2f}x  (~4.25x)")
    slope_note = (
        "steeper" if (full.transform_ms - base.transform_ms)
        > (full.gc_ms - base.gc_ms) else "flatter"
    )
    print(f"  transformer curve is {slope_note} than the GC curve "
          f"(paper: steeper — reflection beats memcopy... at being slow)")
    assert slope_note == "steeper"


if __name__ == "__main__":
    main()
