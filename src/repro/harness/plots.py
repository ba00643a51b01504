"""Plain-text line charts for the regenerated figures.

The paper's Figure 6 is a line plot; rendering an ASCII version alongside
the numeric series makes `benchmark_results/` self-contained without a
plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def ascii_chart(
    series: Dict[str, Sequence[float]],
    x_labels: Sequence[str],
    height: int = 14,
    title: str = "",
) -> str:
    """Render named series (same length as ``x_labels``) as an ASCII chart.

    Each series is assigned a marker character; collisions show the later
    series' marker.
    """
    markers = "*o+x#@"
    all_values = [v for values in series.values() for v in values]
    if not all_values:
        return title
    top = max(all_values) or 1.0
    width = len(x_labels)
    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, value in enumerate(values):
            y = min(height - 1, int(round((value / top) * (height - 1))))
            grid[height - 1 - y][x] = marker
    lines: List[str] = []
    if title:
        lines.append(title)
    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    axis_width = 9
    for row_index, row in enumerate(grid):
        value_at_row = top * (height - 1 - row_index) / (height - 1)
        label = f"{value_at_row:8.1f} |" if row_index % 3 == 0 else " " * 9 + "|"
        lines.append(label + "  ".join(row))
    lines.append(" " * axis_width + "+" + "-" * (3 * width - 2))
    lines.append(" " * (axis_width + 1) + "  ".join(f"{l:>1s}" for l in x_labels))
    return "\n".join(lines)


def figure6_chart(rows) -> str:
    """The three Figure-6 series of one heap as an ASCII chart."""
    return ascii_chart(
        {
            "total": [r.total_pause_ms for r in rows],
            "gc": [r.gc_ms for r in rows],
            "transform": [r.transform_ms for r in rows],
        },
        [f"{int(r.fraction * 10)}" for r in rows],
        title=(
            f"pause time (simulated ms) vs fraction updated (x axis: tenths), "
            f"{rows[0].num_objects} objects"
        ),
    )
