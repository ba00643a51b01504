"""Tests for the experiment harnesses themselves (microbench, jettyperf,
tables), so the benchmark suite rests on verified plumbing."""

import os

import pytest

from repro.apps.registry import APPS, EXPECTED_OUTCOMES, expected_outcome, update_pairs
from repro.harness.jettyperf import run_one
from repro.harness.microbench import (
    OBJECT_CELLS,
    heap_cells_for,
    populate,
    run_microbench,
)
from repro.harness.tables import (
    render_experience_table,
    render_figure6,
    render_table1,
    render_update_table,
    run_single_update,
    update_summary_rows,
)


class TestMicrobench:
    def test_populate_counts_and_anchoring(self):
        from repro.compiler.compile import compile_source
        from repro.harness.microbench import MICRO_V1
        from repro.vm.vm import VM

        vm = VM(heap_cells=heap_cells_for(500))
        vm.boot(compile_source(MICRO_V1, version="m1"))
        num_change = populate(vm, 500, 0.3)
        assert num_change == 150
        holder = vm.registry.get("Holder")
        array = vm.jtoc.read(holder.static_slots["items"])
        assert vm.objects.array_length(array) == 500
        change_count = 0
        for index in range(500):
            address = vm.objects.array_get(array, index)
            if vm.objects.class_of(address).name == "Change":
                change_count += 1
        assert change_count == 150
        # Population survives a collection (anchored by the static).
        vm.collect()
        array = vm.jtoc.read(holder.static_slots["items"])
        assert vm.objects.array_length(array) == 500

    def test_run_transforms_expected_fraction(self):
        result = run_microbench(400, 0.25)
        assert result.objects_transformed == 100
        assert result.total_pause_ms > 0
        assert result.gc_ms > 0

    def test_zero_fraction_has_no_transform_time(self):
        result = run_microbench(400, 0.0)
        assert result.objects_transformed == 0
        # The phase still pays the (empty) class-transformer dispatch, but
        # essentially nothing else.
        assert result.transform_ms < 0.01

    def test_heap_sizing_fits_worst_case(self):
        # 100% updated must fit: every object double-copied.
        result = run_microbench(800, 1.0)
        assert result.objects_transformed == 800

    def test_monotone_in_fraction(self):
        totals = [run_microbench(600, f).total_pause_ms for f in (0.0, 0.5, 1.0)]
        assert totals[0] < totals[1] < totals[2]

    def test_table_rendering(self):
        results = [run_microbench(300, f) for f in (0.0, 1.0)]
        text = render_table1(results)
        assert "Garbage collection time" in text
        assert "Total DSU pause time" in text
        figure = render_figure6(results)
        assert "Figure 6" in figure


class TestJettyPerf:
    @pytest.mark.parametrize("configuration", ["stock", "jvolve", "updated"])
    def test_each_configuration_completes(self, configuration):
        run = run_one(
            configuration, seed=3,
            connections_per_second=20, duration_ms=400, warmup_ms=250,
        )
        assert run.failed == 0
        assert run.completed > 0
        assert run.throughput_mb_s > 0


class TestRegistry:
    def test_apps_expose_version_chains(self):
        assert list(APPS) == ["jetty", "javaemail", "crossftp"]
        assert len(update_pairs("jetty")) == 10
        assert len(update_pairs("javaemail")) == 9
        assert len(update_pairs("crossftp")) == 3

    def test_expected_outcomes_cover_all_updates(self):
        assert len(EXPECTED_OUTCOMES) == 22
        aborts = [o for o in EXPECTED_OUTCOMES if o.paper_outcome == "aborted"]
        assert {(o.app, o.to_version) for o in aborts} == {
            ("jetty", "5.1.3"), ("javaemail", "1.3"),
        }
        # Both paper aborts are rescued by the in-loop OSR extension: the
        # paper outcome stays "aborted", this system's expected status is
        # "applied".
        assert all(o.osr_rescued for o in aborts)
        assert all(o.expected_status == "applied" for o in aborts)
        rescued = [o for o in EXPECTED_OUTCOMES if o.osr_rescued]
        assert rescued == aborts
        assert expected_outcome("javaemail", "1.3.1", "1.3.2").paper_osr
        assert expected_outcome("crossftp", "1.07", "1.08").idle_only
        assert expected_outcome("jetty", "5.1.0", "5.1.1").paper_outcome == "applied"

    def test_expected_osr_rescued_matches_predicted_aborts(self):
        from repro.apps.registry import (
            EXPECTED_OSR_RESCUED,
            STATIC_PREDICTED_ABORTS,
            expected_osr_rescued,
        )

        assert EXPECTED_OSR_RESCUED == STATIC_PREDICTED_ABORTS
        assert expected_osr_rescued("jetty", "5.1.2", "5.1.3")
        assert not expected_osr_rescued("crossftp", "1.07", "1.08")

    def test_update_summary_rows_shape(self):
        rows = update_summary_rows("crossftp")
        assert [r["version"] for r in rows] == ["1.06", "1.07", "1.08"]
        assert all("classes_changed" in r for r in rows)
        text = render_update_table("crossftp", rows)
        assert "1.08" in text


class TestExperienceHarness:
    def test_single_update_outcome_fields(self):
        outcome = run_single_update("jetty", "5.1.8", "5.1.9", timeout_ms=800)
        assert outcome.result.succeeded
        assert outcome.mechanism in ("immediate", "osr(1)")
        assert outcome.body_only_supported
        assert "paper: applied" in outcome.notes
        assert outcome.sessions_failed == 0
        # dsu-lint agrees this lands: no predicted abort.
        assert outcome.predicted_abort == ""
        assert outcome.prediction_matches
        text = render_experience_table([outcome])
        assert "5.1.8->5.1.9" in text
        assert "dsu-lint predicted" in text


class TestStaticPrediction:
    """Satellite of the dsu-lint analyzer: both §4 runtime aborts are
    statically predicted, and the experience table records it."""

    def test_registry_names_the_two_paper_aborts(self):
        from repro.apps.registry import (
            STATIC_PREDICTED_ABORTS,
            statically_predicted_abort,
        )

        assert STATIC_PREDICTED_ABORTS == {
            ("jetty", "5.1.2", "5.1.3"),
            ("javaemail", "1.2.4", "1.3"),
        }
        assert statically_predicted_abort("jetty", "5.1.2", "5.1.3")
        assert not statically_predicted_abort("jetty", "5.1.0", "5.1.1")

    @pytest.mark.parametrize("app,from_version,to_version", [
        ("jetty", "5.1.2", "5.1.3"),
        ("javaemail", "1.2.4", "1.3"),
    ])
    def test_runtime_abort_was_predicted(self, app, from_version, to_version):
        # Paper-fidelity mode: the rescue is off, the abort happens, and
        # the analyzer (also run without the osrmap pass) predicted it.
        outcome = run_single_update(app, from_version, to_version,
                                    timeout_ms=400, paper_fidelity=True)
        assert not outcome.result.succeeded
        assert outcome.predicted_abort == "safepoint/timeout"
        assert outcome.prediction_matches
        text = render_experience_table([outcome])
        assert "safepoint/timeout" in text
        assert "predicted 1 of 1 runtime abort(s) statically" in text

    @pytest.mark.parametrize("app,from_version,to_version", [
        ("jetty", "5.1.2", "5.1.3"),
        ("javaemail", "1.2.4", "1.3"),
    ])
    def test_rescued_update_lands_and_was_predicted_to(
        self, app, from_version, to_version
    ):
        # Default mode: the osrmap pass plans the rescue, the lint verdict
        # flips to "lands", and the runtime agrees via in-loop OSR.
        outcome = run_single_update(app, from_version, to_version,
                                    timeout_ms=400)
        assert outcome.result.succeeded
        assert outcome.result.osr_rescued
        assert outcome.predicted_abort == ""
        assert outcome.prediction_matches
        assert outcome.sessions_failed == 0
        assert outcome.mechanism.startswith("inloop-osr(")
        assert "(rescued)" in outcome.notes
        text = render_experience_table([outcome])
        assert "rescued by in-loop OSR" in text
        assert f"inloop:{outcome.result.extended_osr_frames}" in text


class TestEnduranceHarness:
    """One long-lived server survives its whole update stream; the
    bypass-eligible transitions must be invisible to traffic."""

    def test_javaemail_stream_applies_with_bypass_where_eligible(self):
        from repro.apps.registry import expected_bypass_eligible
        from repro.harness.endurance import endurance_report, run_endurance

        rows = run_endurance("javaemail")
        assert [
            (row.from_version, row.to_version) for row in rows
        ] == update_pairs("javaemail")
        for row in rows:
            expected = expected_bypass_eligible(
                row.app, row.from_version, row.to_version
            )
            assert (row.mode == "bypass") == expected, (
                f"{row.from_version}->{row.to_version}: {row.mode}"
            )
            if row.mode == "bypass":
                assert row.status == "applied"
                assert row.pause_ms == 0.0
                assert row.safepoint_rounds == 0
        # The §4 abort is rescued in place by in-loop OSR: every
        # transition applies, the long-lived server never restarts.
        assert all(row.status == "applied" for row in rows)
        assert not any(row.restarted for row in rows)
        rescued = [row for row in rows if row.osr_rescued]
        assert [(r.from_version, r.to_version) for r in rescued] == [
            ("1.2.4", "1.3")
        ]
        assert rescued[0].mode == "inloop-osr"
        report = endurance_report(rows)
        assert report["problems"] == {}
        assert report["bypassed"] == 3
        assert report["osr_rescued"] == 1

    def test_javaemail_paper_fidelity_stream_restarts_on_the_abort(self):
        from repro.harness.endurance import endurance_report, run_endurance

        rows = run_endurance("javaemail", paper_fidelity=True)
        aborted = [row for row in rows if row.status != "applied"]
        assert [(r.from_version, r.to_version) for r in aborted] == [
            ("1.2.4", "1.3")
        ]
        assert aborted[0].restarted
        assert not any(row.osr_rescued for row in rows)
        report = endurance_report(rows)
        assert report["problems"] == {}

    def test_protocol_mismatch_is_a_problem(self):
        from repro.harness.endurance import TransitionRow

        row = TransitionRow(
            app="jetty", from_version="5.1.0", to_version="5.1.1",
            status="applied", mode="bypass", bc_verdict="bypass-eligible",
            pause_ms=0.0, safepoint_rounds=0, stale_frames=0,
            objects_transformed=0,
            session_failure_kinds=["protocol-mismatch"],
        )
        assert any("protocol mismatch" in p for p in row.problems())
        row.session_failure_kinds = []
        row.pause_ms = 0.1
        assert any("pause" in p for p in row.problems())


# ---------------------------------------------------------------------------
# the shared experiment path: one session primitive, two named default
# policies, and one artifact command


class TestSessionPrimitive:
    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("app", list(APPS))
    def test_session_succeeds_against_the_newest_release(self, app, index):
        from repro.apps.sessions import open_session
        from repro.harness.updates import AppDriver

        driver = AppDriver.for_app(app).boot(list(APPS[app].versions)[-1])
        session = open_session(driver.vm, app, index, 60.0, name="probe")
        driver.run(until_ms=1_500)
        assert session.succeeded, session.failed
        if app == "javaemail":
            protocol = "smtp" if index % 2 == 0 else "pop3"
            assert session.name == f"probe-{protocol}-{index}"

    def test_compile_memo_is_shared_but_keyed_on_the_source(self):
        from repro.harness.microbench import MICRO_V1, MICRO_V2
        from repro.harness.updates import AppDriver

        def driver(source):
            return AppDriver("memo-probe", {"1.0": source}, "Main")

        assert driver(MICRO_V1).classfiles("1.0") is driver(MICRO_V1).classfiles("1.0")
        # Same app name and version label, different program: no aliasing.
        changed = driver(MICRO_V2).classfiles("1.0")
        assert changed is not driver(MICRO_V1).classfiles("1.0")
        assert len(changed["Change"].fields) == 7


class TestDefaultPolicies:
    """The harnesses and the fleet deliberately run different defaults;
    swapping one for the other flips 2 of the 22 outcomes."""

    def test_harness_default_is_the_paper_policy_plus_osr_rescue(self):
        from repro.dsu.policy import UpdatePolicy
        from repro.dsu.safepoint import RetryPolicy
        from repro.harness.updates import harness_policy

        assert harness_policy() == UpdatePolicy(
            retry=RetryPolicy(timeout_ms=15_000.0, retries=0, backoff=2.0),
            lint="off", bypass="off", inloop_osr="auto", transform="eager",
            heap_grow=False,
        )
        lazy = harness_policy(400.0, transform="lazy")
        assert (lazy.retry.timeout_ms, lazy.transform) == (400.0, "lazy")
        assert harness_policy(inloop_osr="off").inloop_osr == "off"

    def test_fleet_default_has_no_rescue(self):
        from repro.fleet import RolloutPolicy

        rollout = RolloutPolicy()
        member = rollout.update_policy()
        assert member.inloop_osr == "off"
        assert member.retry.timeout_ms == rollout.update_timeout_ms
        assert member.retry.retries == rollout.update_retries
        assert (member.bypass, member.transform) == ("off", "eager")


COMMITTED_RESULTS = os.path.join(
    os.path.dirname(__file__), "..", "benchmark_results"
)


def _artifacts(figures):
    """(file, heading) of every artifact the ``FIGURES`` rows make, in
    order; a row with tuples makes one artifact per file."""
    for names, headings, _ in figures:
        if isinstance(names, str):
            yield names, headings
        else:
            assert len(names) == len(headings)
            yield from zip(names, headings)


class TestFigures:
    """``harness.report.FIGURES`` is the only list of committed artifacts."""

    def test_figures_are_exactly_the_committed_artifacts(self):
        from repro.harness.report import FIGURES, SCALES

        committed = set(os.listdir(COMMITTED_RESULTS)) - {"REPORT.txt"}
        names = [name for name, _ in _artifacts(FIGURES)]
        assert len(names) == len(set(names)) == 18
        assert set(names) == committed
        assert tuple(SCALES) == ("small", "full")  # `repro report --scale`
        for sizes in SCALES.values():
            assert set(sizes) <= committed
        # REPORT.txt is the headed figures, in FIGURES order.
        with open(os.path.join(COMMITTED_RESULTS, "REPORT.txt")) as handle:
            lines = handle.read().split("\n")
        rule = "=" * 72
        sections = [
            lines[i] for i in range(1, len(lines) - 1)
            if lines[i - 1] == rule == lines[i + 1]
        ]
        assert len(sections) == 8
        assert sections == [
            heading for _, heading in _artifacts(FIGURES) if heading
        ]

    def test_tables_2_to_4_regenerate_byte_identical(self):
        from repro.harness.report import FIGURES

        tables = [
            (name, figure) for name, _, figure in FIGURES
            if name[:6] in ("table2", "table3", "table4")
        ]
        assert len(tables) == 3
        for name, figure in tables:
            text, problems = figure()
            assert problems == []
            with open(os.path.join(COMMITTED_RESULTS, name)) as handle:
                assert handle.read() == text + "\n"

    def test_a_figure_reports_the_shape_it_lost(self, monkeypatch):
        from repro.harness import pauses, tables

        monkeypatch.setitem(tables.PAPER_BODY_ONLY, "crossftp", {"1.07"})
        _, problems = tables.update_table_figure("crossftp")
        assert problems == ["method-body-only releases are []"]

        _, problems = pauses.pause_sweep_figure([])
        assert "0 rows, not 44" in problems
        assert "0 of 0 lazy updates applied, not 22 of 22" in problems
        assert len(problems) == 5


#: the smallest lazyheap curve that still spans the eager-growth gate
QUICK_CURVE_SIZES = (1_000, 4_000, 16_000)


def _small_fleet():
    from repro.harness.fleet import fleet_report, run_campaign

    return fleet_report(run_campaign(2, 1), [], 2)


def _small_endurance():
    from repro.harness.endurance import endurance_report, run_endurance

    return endurance_report(run_endurance("crossftp"))


def _small_lazyheap():
    from repro.harness.lazyheap import lazyheap_report, run_curve

    return lazyheap_report(*run_curve(QUICK_CURVE_SIZES), [])


class TestJsonRows:
    """The lazyheap, endurance and fleet payloads, built from their rows'
    pieces at the smallest sizes: sorted JSON with no trailing newline
    (the report adds one), the ``benchmark``/``clock`` keys, and no
    problems. (The pause rows run at full size in
    ``test_obs.py::TestBundledUpdateTraces``.)"""

    @pytest.mark.parametrize("payload,title", [
        (_small_fleet, "fleet-rolling-updates"),
        (_small_endurance, "endurance"),
        (_small_lazyheap, "lazy-transformation"),
    ])
    def test_smallest_run_is_a_clean_artifact(self, payload, title):
        import json

        from repro.harness.updates import json_figure

        text, problems = json_figure(payload())
        assert problems == []
        assert text.endswith("}")
        report = json.loads(text)
        assert text == json.dumps(report, indent=2, sort_keys=True)
        assert report["benchmark"] == title
        assert report["clock"] == "simulated"
        assert not report["problems"]


def _stub_figures(monkeypatch, keep=(), failing=None):
    """Replace every ``FIGURES`` function except the rows named in
    ``keep`` with a stub that records its call and renders its sizes; the
    ``failing`` file's stub also reports a problem."""
    from repro.harness import report

    calls = []

    def made(name, sizes):
        return f"<{name} {sorted(sizes)}>", (
            ["the curve is flat"] if name == failing else []
        )

    def stub(names):
        def figure(**sizes):
            calls.append(names)
            if isinstance(names, str):
                return made(names, sizes)
            return tuple(made(name, sizes) for name in names)
        return figure

    monkeypatch.setattr(report, "FIGURES", tuple(
        (names, headings, figure if names in keep else stub(names))
        for names, headings, figure in report.FIGURES
    ))
    return calls


class TestReportCommand:
    def test_report_runs_each_figure_once_and_gates_on_any_problem(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.harness import report

        calls = _stub_figures(monkeypatch, failing="pause_sweep.txt")
        assert main(["report", "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "FIGURE pause_sweep.txt: the curve is flat\n"
        # one walk: one call per row, no second pass for REPORT.txt
        assert calls == [names for names, _, _ in report.FIGURES]
        assert sorted(os.listdir(tmp_path)) == sorted(
            [name for name, _ in _artifacts(report.FIGURES)] + ["REPORT.txt"]
        )
        assert (tmp_path / "table1_microbench.txt").read_text() == (
            "<table1_microbench.txt ['counts', 'fractions']>\n"
        )
        written = (tmp_path / "REPORT.txt").read_text()
        assert written + "\n" == captured.out
        assert written.count("=" * 72) == 16
        assert "<pause_sweep.txt []>" in written
        assert "ablation" not in written and "BENCH" not in written

    def test_timings_print_each_row_on_stderr_and_touch_no_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.harness import report

        _stub_figures(monkeypatch)
        plain = tmp_path / "plain"
        timed = tmp_path / "timed"
        assert main(["report", "--out-dir", str(plain)]) == 0
        untimed_err = capsys.readouterr().err
        assert main(["report", "--timings", "--out-dir", str(timed)]) == 0
        captured = capsys.readouterr()
        assert untimed_err == ""
        lines = captured.err.splitlines()
        assert lines[0].split() == ["row", "host", "s", "share"]
        labels = [line.split("  ")[0].strip() for line in lines[1:-1]]
        assert labels == [
            names if isinstance(names, str) else ", ".join(names)
            for names, _, _ in report.FIGURES
        ]
        assert lines[-1].startswith("total")
        for name in os.listdir(plain):
            assert (plain / name).read_text() == (timed / name).read_text()

    def test_one_pause_sweep_feeds_both_pause_artifacts(
        self, tmp_path, monkeypatch
    ):
        import json

        from repro.harness import pauses
        from repro.harness.report import generate_report

        row = pauses.PauseRow("jetty", "5.1.0", "5.1.1", "applied")
        sweeps = []

        def sweep():
            sweeps.append(row)
            return [row]

        monkeypatch.setattr(pauses, "run_pause_sweep", sweep)
        _stub_figures(
            monkeypatch, keep=(("pause_sweep.txt", "BENCH_pauses.json"),)
        )
        _, problems = generate_report(out_dir=str(tmp_path))
        assert sweeps == [row]
        assert "pause_sweep.txt: 1 rows, not 44" in problems
        assert "5.1.0->5.1.1" in (tmp_path / "pause_sweep.txt").read_text()
        payload = json.loads((tmp_path / "BENCH_pauses.json").read_text())
        assert [update["to_version"] for update in payload["updates"]] == [
            "5.1.1"
        ]

    def test_a_json_problem_fails_the_report_after_every_write(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.harness import endurance

        bad_row = endurance.TransitionRow(
            app="jetty", from_version="5.1.0", to_version="5.1.1",
            status="applied", mode="bypass", bc_verdict="bypass-eligible",
            pause_ms=0.25, safepoint_rounds=0, stale_frames=0,
            objects_transformed=0,
        )
        monkeypatch.setattr(endurance, "run_endurance", lambda app: [bad_row])
        _stub_figures(monkeypatch, keep=("BENCH_endurance.json",))
        assert main(["report", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "FIGURE BENCH_endurance.json: jetty 5.1.0->5.1.1: bypass update "
            "reports"
        )
        assert len(os.listdir(tmp_path)) == 19
        assert (tmp_path / "BENCH_endurance.json").read_text().endswith("}\n")

    @pytest.mark.parametrize("argv,complaint", [
        (["report", "--scale", "huge"], "invalid choice"),
        (["report", "--out-dir"], "expected one argument"),
        (["report", "--check"], "unrecognized arguments: --check"),
        # the per-artifact subcommands are gone: `report` writes all four
        (["pauses"], "invalid choice: 'pauses'"),
        (["lazyheap", "--quick"], "invalid choice: 'lazyheap'"),
        (["endurance", "--app", "jetty"], "invalid choice: 'endurance'"),
        (["fleet", "--members", "3"], "invalid choice: 'fleet'"),
    ])
    def test_bad_input_is_a_usage_error_not_a_traceback(
        self, argv, complaint, capsys
    ):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and complaint in err

    def test_json_rows_flatten_problems_by_subject(self):
        from repro.harness.updates import json_figure

        text, problems = json_figure({
            "problems": {"jetty": ["b", "a"], "crossftp": ["c"]}, "n": 1,
        })
        assert problems == ["crossftp: c", "jetty: b", "jetty: a"]
        assert text.startswith('{\n  "n": 1,\n  "problems"')
        assert json_figure({"problems": ["flat"]})[1] == ["flat"]

    def test_importing_the_cli_loads_no_harness_code(self):
        """``repro report`` and ``repro trace`` import the harness inside
        their handlers, so every other subcommand starts without it."""
        import subprocess
        import sys

        import repro

        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('\\n'.join(sorted(sys.modules)))"],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(
                os.path.dirname(repro.__file__)
            )),
            check=True, capture_output=True, text=True,
        ).stdout.split()
        assert "repro.cli" in loaded
        assert [
            name for name in loaded
            if name.startswith(("repro.harness", "repro.fleet"))
        ] == []
