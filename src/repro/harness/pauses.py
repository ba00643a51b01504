"""Per-phase pause breakdowns for every bundled update.

Replays the experience sweep's light-load scenario for each of the 22
bundled update pairs and records where the pause time went — suspend,
class loading, OSR, the update GC, transformers, cleanup — plus the time
spent *waiting* for a DSU safe point before the pause even began. The
sweep doubles as a tracing soundness check: every run's span tree must
validate (no unclosed spans, children inside parents, siblings ordered)
and the per-phase breakdown must never sum to more than the end-to-end
update latency.

One sweep, two ``repro report`` rows (:func:`pause_figures`): the human
table ``pause_sweep.txt`` and the per-update rows ``BENCH_pauses.json``.
``repro trace`` writes one run's Chrome ``trace_event`` file for Perfetto.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.registry import APPS, update_pairs
from ..obs.export import write_chrome_trace
from ..vm.vm import VM
from .updates import (
    Figure,
    failed,
    harness_policy,
    json_figure,
    light_load,
    run_update,
)

#: tolerance when comparing simulated-millisecond sums
_EPS_MS = 1e-6


@dataclass
class PauseRow:
    """One update's pause accounting."""

    app: str
    from_version: str
    to_version: str
    status: str
    #: "eager" (per-object work inside the pause) or "lazy" (epoch)
    transform_mode: str = "eager"
    #: per-phase pause in simulated ms (suspend/classload/osr/gc/transform/
    #: cleanup — only phases that ran appear)
    phases: Dict[str, float] = field(default_factory=dict)
    #: request -> pause-start wait for a DSU safe point
    safepoint_wait_ms: float = 0.0
    total_pause_ms: float = 0.0
    #: request -> finished (applied or aborted), simulated ms
    end_to_end_ms: float = 0.0
    attempts: int = 0
    rounds: int = 1
    osr_frames: int = 0
    objects_transformed: int = 0
    #: True when the prepared update's GC transform map is empty (no class
    #: layout changed) — the engine must then skip the update collection
    transform_map_empty: bool = False
    #: problems reported by Tracer.validate() for this run (must be empty)
    trace_problems: List[str] = field(default_factory=list)

    @property
    def phase_sum_ms(self) -> float:
        return sum(self.phases.values())

    def soundness_problems(self) -> List[str]:
        """The invariants ``BENCH_pauses.json`` gates on."""
        problems = list(self.trace_problems)
        if self.phase_sum_ms > self.end_to_end_ms + _EPS_MS:
            problems.append(
                f"phase breakdown sums to {self.phase_sum_ms:.6f} ms > "
                f"end-to-end {self.end_to_end_ms:.6f} ms"
            )
        if self.transform_map_empty and self.phases.get("gc", 0.0) > 0.0:
            problems.append(
                "no class layout changed, yet the update reports a "
                f"{self.phases['gc']:.6f} ms GC pause — the needless "
                "full-heap update collection is back"
            )
        if (
            self.transform_mode == "lazy"
            and self.status == "applied"
            and not self.transform_map_empty
        ):
            # The lazy tentpole claim: per-object work is out of the pause.
            if self.phases.get("gc", 0.0) > 0.0:
                problems.append(
                    "lazy update reports a "
                    f"{self.phases['gc']:.6f} ms update-collection pause — "
                    "the pause is scaling with the heap again"
                )
            if self.objects_transformed > 0:
                problems.append(
                    f"lazy update transformed {self.objects_transformed} "
                    "objects inside the pause"
                )
        return problems


def measure_pause(
    app: str,
    from_version: str,
    to_version: str,
    request_at_ms: float = 300.0,
    timeout_ms: float = 1_000.0,
    until_ms: float = 4_500.0,
    trace_out: Optional[str] = None,
    transform: str = "eager",
) -> Tuple[PauseRow, VM]:
    """Boot ``from_version`` under light load, apply one update, and return
    its pause breakdown plus the VM (for its span tree and metrics). With
    ``trace_out`` the run's full span tree is written as Chrome
    ``trace_event`` JSON."""
    driver, holder, _ = run_update(
        app, from_version, to_version,
        harness_policy(timeout_ms, transform=transform), light_load,
        request_at_ms=request_at_ms, until_ms=until_ms,
    )
    result = holder["result"]
    vm = driver.vm
    spec = holder["prepared"].spec
    row = PauseRow(
        app=app,
        from_version=from_version,
        to_version=to_version,
        status=result.status,
        transform_mode=transform,
        phases={name: round(ms, 6) for name, ms in result.phase_ms.items()},
        safepoint_wait_ms=round(result.safepoint_wait_ms, 6),
        total_pause_ms=round(result.total_pause_ms, 6),
        end_to_end_ms=round(
            max(0.0, result.finished_at_ms - result.requested_at_ms), 6
        ),
        attempts=result.attempts,
        rounds=result.retry_rounds + 1,
        osr_frames=result.osr_frames + result.extended_osr_frames,
        objects_transformed=result.objects_transformed,
        transform_map_empty=not spec.class_updates,
        trace_problems=vm.tracer.validate(),
    )
    if trace_out:
        write_chrome_trace(
            vm.tracer, trace_out, metrics=vm.metrics,
            process_name=f"repro-vm {app} {from_version}->{to_version}",
        )
    return row, vm


def run_pause_sweep() -> List[PauseRow]:
    """Pause breakdowns for every bundled update of every application,
    once per transform mode (the lazy rows feed the zero-per-object-work
    soundness gate)."""
    return [
        measure_pause(app, from_version, to_version, transform=transform)[0]
        for app in APPS
        for from_version, to_version in update_pairs(app)
        for transform in ("eager", "lazy")
    ]


_PHASE_ORDER = ("suspend", "classload", "osr", "gc", "transform", "cleanup")


def render_pause_table(rows: List[PauseRow]) -> str:
    """Human-readable pause breakdown, one line per update."""
    lines = [
        "Per-update pause breakdown (simulated ms)",
        f"{'app':>10s} {'update':>16s} {'mode':>6s} {'outcome':>8s} "
        f"{'wait':>9s} "
        + " ".join(f"{name:>9s}" for name in _PHASE_ORDER)
        + f" {'pause':>9s} {'e2e':>9s} {'objs':>6s}",
    ]
    for row in rows:
        update = f"{row.from_version}->{row.to_version}"
        cells = " ".join(
            (f"{row.phases[name]:>9.2f}" if name in row.phases else f"{'-':>9s}")
            for name in _PHASE_ORDER
        )
        lines.append(
            f"{row.app:>10s} {update:>16s} {row.transform_mode:>6s} "
            f"{row.status:>8s} "
            f"{row.safepoint_wait_ms:>9.2f} {cells} "
            f"{row.total_pause_ms:>9.2f} {row.end_to_end_ms:>9.2f} "
            f"{row.objects_transformed:>6d}"
        )
    bad = [row for row in rows if row.soundness_problems()]
    lines.append(
        f"{len(rows)} updates measured; "
        + (f"{len(bad)} with soundness problems"
           if bad else "all pause breakdowns sound")
    )
    return "\n".join(lines)


def pause_sweep_figure(rows: List[PauseRow]) -> Figure:
    """All 22 bundled updates x both transform modes (44 rows): every one
    applies (the in-loop OSR rescue is on), and the OSR-requiring update
    shows OSR work inside the pause whether objects transform eagerly or
    lazily."""
    checks = [(len(rows) == 44, f"{len(rows)} rows, not 44")]
    for mode in ("eager", "lazy"):
        mode_rows = [row for row in rows if row.transform_mode == mode]
        applied = sum(1 for row in mode_rows if row.status == "applied")
        checks += [
            (len(mode_rows) == applied == 22,
             f"{applied} of {len(mode_rows)} {mode} updates applied, not "
             f"22 of 22"),
            (any(row.osr_frames >= 1 and row.phases.get("osr", 0.0) > 0.0
                 for row in mode_rows
                 if (row.app, row.to_version) == ("javaemail", "1.3.2")),
             f"javaemail 1.3.1->1.3.2 [{mode}] shows no OSR work in its "
             f"pause"),
        ]
    return render_pause_table(rows), failed(checks)


def pause_figures() -> Tuple[Figure, Figure]:
    """One pause sweep, two artifacts: ``pause_sweep.txt`` (the table and
    its shape) and ``BENCH_pauses.json`` (the rows and their soundness).

    The JSON's problems fail ``repro report`` if any update's phase
    breakdown sums to more than its end-to-end pause, if any run's span
    tree fails validation, if any update whose prepared transform map is
    empty (no class layout changed) reports a nonzero GC pause (the
    GC-skip regression gate), or if any lazy run reports an
    update-collection pause or in-pause object transforms: the lazy epoch
    must keep all per-object work out of the pause."""
    rows = run_pause_sweep()
    return pause_sweep_figure(rows), json_figure({
        "benchmark": "pause-breakdown",
        "clock": "simulated",
        "updates": [asdict(row) for row in rows],
        "problems": {
            f"{row.app} {row.from_version}->{row.to_version} "
            f"[{row.transform_mode}]": problems
            for row in rows
            if (problems := row.soundness_problems())
        },
    })
