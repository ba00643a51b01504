"""Per-update pause breakdowns for all 22 bundled updates, per transform mode.

The harness behind ``BENCH_pauses.json``: every bundled update runs under
light load with full tracing — once eagerly, once lazily (44 rows) — and the per-phase pause accounting must be
sound — each update's phase breakdown sums to no more than its end-to-end
latency, and every span tree validates (aborted and rolled-back updates
included).
"""

import pytest

from benchmarks.conftest import emit
from repro.harness.pauses import render_pause_table, run_pause_sweep


@pytest.mark.benchmark(group="pause-sweep")
def test_pause_sweep(benchmark):
    rows = benchmark.pedantic(run_pause_sweep, rounds=1, iterations=1)
    emit("pause_sweep", render_pause_table(rows))

    # One row per bundled update per transform mode; with the in-loop OSR
    # rescue on (the harness default) all 22 land in both modes.
    by_mode = {}
    for row in rows:
        by_mode.setdefault(row.transform_mode, []).append(row)
    assert sorted(by_mode) == ["eager", "lazy"]
    for mode, mode_rows in by_mode.items():
        assert len(mode_rows) == 22, mode
        assert [row.status for row in mode_rows] == ["applied"] * 22, mode
    unsound = {
        f"{row.app} {row.from_version}->{row.to_version} "
        f"[{row.transform_mode}]": problems
        for row in rows if (problems := row.soundness_problems())
    }
    assert unsound == {}
    # The OSR-requiring update shows OSR work in its breakdown — the OSR
    # phase is inside the pause whether objects transform eagerly or lazily.
    for mode, mode_rows in by_mode.items():
        osr_row = next(
            row for row in mode_rows
            if (row.app, row.from_version, row.to_version)
            == ("javaemail", "1.3.1", "1.3.2")
        )
        assert osr_row.osr_frames >= 1, mode
        assert osr_row.phases.get("osr", 0.0) > 0.0, mode
