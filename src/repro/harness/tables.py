"""Renders the paper's tables and figures from harness results, and drives
the full experience sweep (every update of every application)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..apps.registry import (
    APPS,
    EXPECTED_OSR_RESCUED,
    expected_outcome,
    update_pairs,
)
from ..dsu.upt import diff_programs
from .microbench import MicrobenchResult, run_microbench, sweep
from .plots import figure6_chart
from .updates import (
    AppDriver,
    AppUpdateOutcome,
    Figure,
    failed,
    harness_policy,
    light_load,
    run_update,
)


# ---------------------------------------------------------------------------
# Table 1 / Figure 6


def render_table1(results: Sequence[MicrobenchResult]) -> str:
    """The paper's Table 1 layout: three blocks (GC time, transformer time,
    total pause) with one row per heap size and one column per fraction."""
    by_count: Dict[int, Dict[float, MicrobenchResult]] = {}
    fractions: List[float] = []
    for result in results:
        by_count.setdefault(result.num_objects, {})[result.fraction] = result
        if result.fraction not in fractions:
            fractions.append(result.fraction)
    fractions.sort()
    # Heap labels map by rank onto the paper's four heap sizes, whatever
    # scaled object counts were swept.
    paper_labels = ["160 MB", "320 MB", "640 MB", "1280 MB"]
    counts = sorted(by_count)
    labels = dict(zip(counts, paper_labels))
    header = "# objects  heap(paper)  " + " ".join(f"{int(f*100):>6d}%" for f in fractions)

    def block(title: str, metric) -> List[str]:
        lines = [title, header]
        for count in counts:
            cells = by_count[count]
            row = f"{count:>9d}  {labels[count]:>10s}   " + " ".join(
                f"{metric(cells[f]):>7.1f}" for f in fractions
            )
            lines.append(row)
        return lines

    lines: List[str] = []
    lines += block("Garbage collection time (ms, simulated)", lambda r: r.gc_ms)
    lines.append("")
    lines += block("Running transformation functions (ms, simulated)", lambda r: r.transform_ms)
    lines.append("")
    lines += block("Total DSU pause time (ms, simulated)", lambda r: r.total_pause_ms)
    return "\n".join(lines)


def render_figure6(rows: Sequence[MicrobenchResult]) -> str:
    """Figure 6: the three series for one heap (``rows`` in fraction
    order), printable."""
    lines = [
        f"Figure 6 — pause times, {rows[0].num_objects} objects "
        f"({rows[0].paper_heap_label} in the paper)",
        f"{'fraction':>8s} {'gc_ms':>9s} {'transform_ms':>13s} {'total_ms':>9s}",
    ]
    for row in rows:
        lines.append(
            f"{row.fraction:>8.0%} {row.gc_ms:>9.1f} {row.transform_ms:>13.1f} "
            f"{row.total_pause_ms:>9.1f}"
        )
    return "\n".join(lines)


def table1_figure(counts: Sequence[int], fractions: Sequence[float]) -> Figure:
    """Table 1 (E1). Paper, largest heap, 0% -> 100% updated: GC 615 ->
    1218 ms, transformers 0 -> 1405 ms, total 619 -> 2628 ms (4.2x)."""
    results = sweep(counts, fractions)
    by_key = {(r.num_objects, r.fraction): r for r in results}
    checks = []
    for count in counts:
        base, full = by_key[(count, 0.0)], by_key[(count, 1.0)]
        checks += [
            (1.4 <= full.gc_ms / base.gc_ms <= 3.0,
             f"{count} objects: GC time does not grow 1.4-3.0x (paper ~2x)"),
            (base.transform_ms < 0.5,
             f"{count} objects: transformer time with nothing to transform"),
            (full.transform_ms > full.gc_ms - base.gc_ms,
             f"{count} objects: transformers cost less than the GC increment"),
            (3.0 <= full.total_pause_ms / base.total_pause_ms <= 5.5,
             f"{count} objects: total pause does not grow 3.0-5.5x (paper 4.2x)"),
        ]
    for fraction in (0.0, 1.0):
        totals = [by_key[(c, fraction)].total_pause_ms for c in counts]
        checks.append((totals == sorted(totals),
                       f"pause at {fraction:.0%} updated shrinks as the heap grows"))
    return render_table1(results), failed(checks)


def figure6_figure(num_objects: int) -> Figure:
    """Figure 6 (E1): both cost curves rise with the fraction of updated
    objects, the transformer curve more steeply than the GC curve."""
    results = [run_microbench(num_objects, i / 10) for i in range(11)]
    gc = [r.gc_ms for r in results]
    transform = [r.transform_ms for r in results]
    total = [r.total_pause_ms for r in results]

    def rising(series, slack=0.0):
        return all(b >= a - slack for a, b in zip(series, series[1:]))

    return render_figure6(results) + "\n\n" + figure6_chart(results), failed([
        (rising(gc, slack=0.2), "GC time falls as more is updated"),
        (rising(transform), "transformer time falls as more is updated"),
        (rising(total), "total pause falls as more is updated"),
        (transform[-1] - transform[0] > gc[-1] - gc[0],
         "the transformer curve is not steeper than the GC curve"),
    ])


# ---------------------------------------------------------------------------
# Tables 2-4: per-release change summaries from the UPT

#: releases the paper identifies as supportable by method-body-only systems
PAPER_BODY_ONLY = {
    "jetty": {"5.1.1", "5.1.8", "5.1.9", "5.1.10"},
    "javaemail": {"1.2.2", "1.2.4", "1.3.1"},
    "crossftp": set(),
}


def update_summary_rows(app: str) -> List[dict]:
    driver = AppDriver.for_app(app)
    rows = []
    for from_version, to_version in update_pairs(app):
        spec = diff_programs(
            driver.classfiles(from_version),
            driver.classfiles(to_version),
            from_version,
            to_version,
        )
        totals = spec.totals()
        totals["version"] = to_version
        totals["body_only"] = spec.method_body_only()
        rows.append(totals)
    return rows


def render_update_table(app: str, rows: List[dict]) -> str:
    """One of Tables 2-4: change counts per release."""
    lines = [
        f"Summary of updates to {app}",
        f"{'Ver.':>8s} {'+cls':>5s} {'-cls':>5s} {'~cls':>5s} "
        f"{'+mth':>5s} {'-mth':>5s} {'chg x/y':>8s} "
        f"{'+fld':>5s} {'-fld':>5s} {'~fld':>5s} {'body-only':>10s}",
    ]
    for row in rows:
        chg = f"{row['methods_body_changed']}/{row['methods_signature_changed']}"
        lines.append(
            f"{row['version']:>8s} {row['classes_added']:>5d} "
            f"{row['classes_deleted']:>5d} {row['classes_changed']:>5d} "
            f"{row['methods_added']:>5d} {row['methods_deleted']:>5d} "
            f"{chg:>8s} {row['fields_added']:>5d} {row['fields_deleted']:>5d} "
            f"{row['fields_type_changed']:>5d} "
            f"{'yes' if row['body_only'] else 'no':>10s}"
        )
    return "\n".join(lines)


def update_table_figure(app: str) -> Figure:
    """Tables 2-4 (E3-E5): which releases are method-body-only (the ones
    E&C-style systems could support) and which change class signatures."""
    rows = update_summary_rows(app)
    body_only = {row["version"] for row in rows if row["body_only"]}
    checks = [(body_only == PAPER_BODY_ONLY[app],
               f"method-body-only releases are {sorted(body_only)}")]
    checks += [
        (row["classes_added"] or row["classes_deleted"]
         or row["classes_changed"], f"empty update {row['version']}")
        for row in rows
    ]
    return render_update_table(app, rows), failed(checks)


# ---------------------------------------------------------------------------
# The experience sweep (the 20-of-22 headline)


def run_single_update(
    app: str,
    from_version: str,
    to_version: str,
    timeout_ms: float = 1_000.0,
    paper_fidelity: bool = False,
) -> AppUpdateOutcome:
    """Boot ``from_version`` under light load, apply one update, report.

    ``paper_fidelity=True`` disables the in-loop OSR rescue, reproducing
    the paper's §4 numbers exactly (20 of 22; the two blocked-forever
    updates abort)."""
    policy = harness_policy(
        timeout_ms, inloop_osr="off" if paper_fidelity else "auto"
    )
    driver, holder, sessions = run_update(
        app, from_version, to_version, policy, light_load
    )
    result = holder["result"]
    prepared = holder["prepared"]
    from ..analysis import analyze_update

    lint_report = analyze_update(
        driver.classfiles(from_version), prepared,
        inloop_osr=not paper_fidelity,
    )
    raw_spec = diff_programs(
        driver.classfiles(from_version),
        driver.classfiles(to_version),
        from_version,
        to_version,
        minimize=False,
    )
    outcome = AppUpdateOutcome(
        app=app,
        from_version=from_version,
        to_version=to_version,
        result=result,
        sessions_completed=sum(1 for s in sessions if s.succeeded),
        sessions_failed=sum(1 for s in sessions if s.failed),
        body_only_supported=prepared.spec.method_body_only(),
        predicted_abort=lint_report.predicted_abort,
        bc_verdict=(
            lint_report.bc_verdict.verdict if lint_report.bc_verdict else ""
        ),
        restricted_before=raw_spec.restricted_size(),
        restricted_after=prepared.spec.restricted_size(),
    )
    expected = expected_outcome(app, from_version, to_version)
    if expected is not None:
        want = (
            expected.paper_outcome if paper_fidelity
            else expected.expected_status
        )
        matches = (result.status == want)
        outcome.notes = (
            f"paper: {expected.paper_outcome}"
            + (" +osr" if expected.paper_osr else "")
            + (" (idle-only)" if expected.idle_only else "")
            + (
                " (rescued)"
                if expected.osr_rescued and not paper_fidelity else ""
            )
            + ("" if matches else "  ** MISMATCH **")
        )
    if outcome.abort_why:
        outcome.notes = (outcome.notes + "  " if outcome.notes else "") + \
            f"[{outcome.abort_why}]"
    return outcome


def run_experience_sweep(**kwargs) -> List[AppUpdateOutcome]:
    """Every update of every application — the §4 headline numbers."""
    outcomes = []
    for app in APPS:
        for from_version, to_version in update_pairs(app):
            outcomes.append(run_single_update(app, from_version, to_version, **kwargs))
    return outcomes


def _osr_cell(o: AppUpdateOutcome) -> str:
    """The ``osr`` column: which OSR flavor touched this update's frames —
    the in-loop rescue (remapped frames), stock identity OSR, or none."""
    if o.result.osr_rescued:
        return f"inloop:{o.result.extended_osr_frames}"
    if o.result.succeeded and o.result.used_osr:
        return f"stock:{o.result.osr_frames}"
    return "-"


def render_experience_table(outcomes: Sequence[AppUpdateOutcome]) -> str:
    applied = sum(1 for o in outcomes if o.result.succeeded)
    body_only = sum(1 for o in outcomes if o.body_only_supported and o.result.succeeded)
    aborted = [o for o in outcomes if not o.result.succeeded]
    predicted_aborts = sum(1 for o in aborted if o.predicted_abort)
    agree = sum(1 for o in outcomes if o.prediction_matches)
    shrunk = sum(1 for o in outcomes if o.restricted_after < o.restricted_before)
    eligible = sum(1 for o in outcomes if o.bc_eligible)
    bypassed = sum(1 for o in outcomes if o.result.bypassed)
    rescued = sum(1 for o in outcomes if o.result.osr_rescued)
    rescue_note = (
        f" ({rescued} rescued by in-loop OSR)" if rescued else ""
    )
    lines = [
        f"Experience: {applied} of {len(outcomes)} updates applied "
        f"(paper: 20 of 22){rescue_note}; method-body-only systems could "
        f"support {body_only} (paper: 9); dsu-lint predicted "
        f"{predicted_aborts} of "
        f"{len(aborted)} runtime abort(s) statically "
        f"({agree}/{len(outcomes)} verdicts agree); semantic diff shrank "
        f"the restricted set on {shrunk} of {len(outcomes)} updates; "
        f"con-freeness: {eligible} of {len(outcomes)} bypass-eligible, "
        f"{bypassed} applied via immediate bypass",
        f"{'app':>10s} {'update':>16s} {'outcome':>9s} {'mechanism':>16s} "
        f"{'why':>22s} {'predicted':>18s} {'bc':>7s} {'osr':>8s} "
        f"{'restr':>8s} "
        f"{'rounds':>6s} {'pause(ms)':>10s} {'objs':>6s}  notes",
    ]
    for o in outcomes:
        update = f"{o.from_version}->{o.to_version}"
        pause = f"{o.result.total_pause_ms:.2f}" if o.result.succeeded else "-"
        why = o.abort_why or "-"
        predicted = o.predicted_abort or "-"
        bc = ("bypass" if o.bc_eligible else "safept") if o.bc_verdict else "-"
        restr = (f"{o.restricted_before}->{o.restricted_after}"
                 if o.restricted_after != o.restricted_before
                 else str(o.restricted_before))
        lines.append(
            f"{o.app:>10s} {update:>16s} {o.result.status:>9s} "
            f"{o.mechanism:>16s} {why:>22s} {predicted:>18s} {bc:>7s} "
            f"{_osr_cell(o):>8s} "
            f"{restr:>8s} {o.retry_rounds + 1:>6d} {pause:>10s} "
            f"{o.result.objects_transformed:>6d}  {o.notes}"
        )
    return "\n".join(lines)


def experience_figure(paper_fidelity: bool = False) -> Figure:
    """The §4 headline (E6): all 22 land, the paper's two aborts by
    in-loop OSR; with ``paper_fidelity`` (rescue off) exactly those two
    abort — the paper's 20 of 22."""
    outcomes = run_experience_sweep(paper_fidelity=paper_fidelity)

    def updates(selected):
        return {(o.app, o.from_version, o.to_version) for o in selected}

    aborted = updates(o for o in outcomes if not o.result.succeeded)
    rescued = [o for o in outcomes if o.result.osr_rescued]
    checks = [
        (len(outcomes) == 22, f"{len(outcomes)} updates ran, not 22"),
        (not any("MISMATCH" in o.notes for o in outcomes),
         "an outcome disagrees with the registry's expectation (MISMATCH)"),
    ]
    if paper_fidelity:
        checks += [
            (aborted == EXPECTED_OSR_RESCUED, f"aborted: {sorted(aborted)}"),
            (not rescued, "in-loop OSR ran with the rescue off"),
        ]
    else:
        body_only = sum(1 for o in outcomes if o.body_only_supported)
        checks += [
            (not aborted, f"aborted with the rescue on: {sorted(aborted)}"),
            (updates(rescued) == EXPECTED_OSR_RESCUED,
             f"rescued by in-loop OSR: {sorted(updates(rescued))}"),
            (all(o.result.extended_osr_frames > 0 for o in rescued),
             "a rescued update remapped no live frame"),
            ({("javaemail", "1.3.1", "1.3.2"), ("javaemail", "1.3.2", "1.3.3")}
             <= updates(o for o in outcomes if o.result.used_osr),
             "OSR not used for javaemail 1.3.2 and 1.3.3 (paper §4.3)"),
            (5 <= body_only <= 10,
             f"{body_only} method-body-only updates (paper: 9; expected 5-10)"),
            (all(o.sessions_failed == 0 for o in outcomes),
             "a client session failed during an update"),
        ]
    return render_experience_table(outcomes), failed(checks)
