"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main

V1 = """
class Greeter { static string greet() { return "v1"; } }
class Main {
    static int rounds;
    static void main() {
        while (rounds < 10) {
            Sys.print(Greeter.greet());
            Sys.sleep(10);
            rounds = rounds + 1;
        }
    }
}
"""
V2 = V1.replace('return "v1";', 'return "v2";')


@pytest.fixture
def program_files(tmp_path):
    old = tmp_path / "old.jm"
    new = tmp_path / "new.jm"
    old.write_text(V1)
    new.write_text(V2)
    return str(old), str(new)


class TestRun:
    def test_run_prints_console(self, program_files, capsys):
        old, _ = program_files
        assert main(["run", old, "--until-ms", "500"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["v1"] * 10

    def test_run_reports_traps(self, tmp_path, capsys):
        bad = tmp_path / "bad.jm"
        bad.write_text(
            "class Main { static void main() { int z = 0; int x = 1 / z; } }"
        )
        assert main(["run", str(bad)]) == 1
        assert "division" in capsys.readouterr().err


class TestDisasm:
    def test_disasm_lists_bytecode(self, program_files, capsys):
        old, _ = program_files
        assert main(["disasm", old, "--class-name", "Greeter"]) == 0
        out = capsys.readouterr().out
        assert "class Greeter" in out
        assert "CONST_STR 'v1'" in out

    def test_disasm_unknown_class(self, program_files, capsys):
        old, _ = program_files
        assert main(["disasm", old, "--class-name", "Nope"]) == 1


class TestDiff:
    def test_diff_reports_classification(self, program_files, capsys):
        old, new = program_files
        assert main(["diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "body-changed 1" in out
        assert "method-body-only systems: yes" in out


class TestUpdate:
    def test_update_applies_and_switches_output(self, program_files, capsys):
        old, new = program_files
        code = main(["update", old, new, "--at", "45", "--until-ms", "2000"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert "v1" in lines and "v2" in lines
        assert "[update] applied" in captured.err

    def test_update_trace_out_writes_chrome_trace(self, program_files,
                                                  tmp_path, capsys):
        import json

        old, new = program_files
        trace_path = tmp_path / "update.trace.json"
        code = main(["update", old, new, "--at", "45", "--until-ms", "2000",
                     "--trace-out", str(trace_path)])
        assert code == 0
        assert "[trace] wrote" in capsys.readouterr().err
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "dsu.update" in names
        # A body-only update has an empty transform map, so the engine
        # skips the update collection and marks the trace instead.
        assert "gc.collect" not in names
        assert "dsu.gc.skipped" in names
        assert trace["otherData"]["metrics"]["counters"]["dsu.updates_applied"] == 1

    def test_update_with_transformer_overrides_file(self, tmp_path, capsys):
        v1 = tmp_path / "a.jm"
        v2 = tmp_path / "b.jm"
        v1.write_text("""
class State { int level; }
class Keep { static State s; }
class Main {
    static int rounds;
    static void main() {
        Keep.s = new State();
        Keep.s.level = 3;
        while (rounds < 20) { Sys.sleep(10); rounds = rounds + 1; }
        Sys.print("" + Show.text());
    }
}
class Show { static string text() { return "L" + Keep.s.level; } }
""")
        v2.write_text("""
class State { int level; int stars; }
class Keep { static State s; }
class Main {
    static int rounds;
    static void main() {
        Keep.s = new State();
        Keep.s.level = 3;
        while (rounds < 20) { Sys.sleep(10); rounds = rounds + 1; }
        Sys.print("" + Show.text());
    }
}
class Show { static string text() { return "L" + Keep.s.level + "*" + Keep.s.stars; } }
""")
        transformers = tmp_path / "trans.jvt"
        transformers.write_text("""=== State
    static void jvolveClass(State unused) { }
    static void jvolveObject(State to, v10_State from) {
        to.level = from.level;
        to.stars = from.level * 10;
    }
""")
        code = main([
            "update", str(v1), str(v2), "--at", "45", "--until-ms", "2000",
            "--transformers", str(transformers),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "L3*30" in captured.out

    def test_update_abort_exit_code(self, tmp_path, capsys):
        v1 = tmp_path / "s1.jm"
        v2 = tmp_path / "s2.jm"
        v1.write_text("""
class Loop { static int n; static void spin() { while (true) { Sys.sleep(5); n = n + 1; if (n > 500) { Sys.halt(); } } } }
class Main { static void main() { Loop.spin(); } }
""")
        v2.write_text(v1.read_text().replace("n = n + 1;", "n = n + 2;"))
        code = main([
            "update", str(v1), str(v2), "--at", "20",
            "--timeout-ms", "200", "--until-ms", "1500",
            "--inloop-osr", "off",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "aborted" in captured.err

    def test_update_warnings_follow_the_inloop_osr_flag(self, tmp_path,
                                                        capsys):
        # With the rescue off, the pre-flight warnings must not promise
        # one: the spinner is reported as an abort, never as "will OSR".
        v1 = tmp_path / "s1.jm"
        v2 = tmp_path / "s2.jm"
        v1.write_text(SPIN_V1)
        v2.write_text(SPIN_V1.replace("n + 1", "n + 2"))
        code = main([
            "update", str(v1), str(v2), "--at", "20",
            "--timeout-ms", "100", "--until-ms", "400",
            "--inloop-osr", "off",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "will OSR" not in captured.err
        assert "[warn] restricted method Loop.spin()V can never leave the " \
            "stack" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--dsu-transform", "lazy", "--dsu-heap-grow"],
        ["--auto-read-barrier"],
    ], ids=["lazy-heap-grow", "removed-auto-barrier"])
    def test_update_rejects_bad_flags(self, program_files, flags, capsys):
        old, new = program_files
        try:
            code = main(["update", old, new, *flags])
        except SystemExit as exit_:  # argparse rejects an unknown flag
            code = exit_.code
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_update_inloop_osr_rescues_the_spinner(self, tmp_path, capsys):
        # Same doomed pair, but with the default in-loop OSR rescue on the
        # engine remaps the spinning frame instead of aborting.
        v1 = tmp_path / "s1.jm"
        v2 = tmp_path / "s2.jm"
        v1.write_text("""
class Loop { static int n; static void spin() { while (true) { Sys.sleep(5); n = n + 1; if (n > 500) { Sys.halt(); } } } }
class Main { static void main() { Loop.spin(); } }
""")
        v2.write_text(v1.read_text().replace("n = n + 1;", "n = n + 2;"))
        code = main([
            "update", str(v1), str(v2), "--at", "20",
            "--timeout-ms", "200", "--until-ms", "1500",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "[update] applied" in captured.err
        assert "will OSR" in captured.err

    def test_update_strict_lint_refuses_doomed_update(self, tmp_path, capsys):
        v1 = tmp_path / "s1.jm"
        v2 = tmp_path / "s2.jm"
        v1.write_text("""
class Loop { static int n; static void spin() { while (true) { Sys.sleep(5); n = n + 1; } } }
class Main { static void main() { Loop.spin(); } }
""")
        v2.write_text(v1.read_text().replace("n = n + 1;", "n = n + 2;"))
        code = main([
            "update", str(v1), str(v2), "--at", "20",
            "--timeout-ms", "200", "--until-ms", "1500",
            "--dsu-lint", "strict", "--inloop-osr", "off",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "phase=preflight" in captured.err
        assert "lint-rejected" in captured.err
        assert "dsu-lint" in captured.err


SPIN_V1 = """
class Loop {
    static int n;
    static void spin() { while (true) { Sys.sleep(5); n = n + 1; } }
}
class Main { static void main() { Loop.spin(); } }
"""


@pytest.fixture
def doomed_files(tmp_path):
    old = tmp_path / "spin1.jm"
    new = tmp_path / "spin2.jm"
    old.write_text(SPIN_V1)
    new.write_text(SPIN_V1.replace("n + 1", "n + 2"))
    return str(old), str(new)


class TestDsuLint:
    def test_clean_pair_exits_zero(self, program_files, capsys):
        old, new = program_files
        assert main(["dsu-lint", old, new]) == 0
        out = capsys.readouterr().out
        assert "dsu-lint 1.0 -> 2.0" in out
        assert "no statically-detectable blocker" in out

    def test_doomed_pair_exits_nonzero_with_suggestion(self, doomed_files,
                                                       capsys):
        # Paper-fidelity mode: without the osrmap pass the spinner is a
        # hard predicted abort.
        old, new = doomed_files
        assert main(["dsu-lint", old, new, "--paper-fidelity"]) == 1
        out = capsys.readouterr().out
        assert "DSU-SP01" in out
        assert "blacklist Loop.spin()V" in out
        assert "predicted to ABORT (safepoint/timeout)" in out

    def test_doomed_pair_is_planned_by_default(self, doomed_files, capsys):
        # Default mode: the osrmap pass proves a remap for the spinner, the
        # DSU-SP01 error downgrades to a "will OSR" warning, and the
        # verdict flips to "lands".
        old, new = doomed_files
        assert main(["dsu-lint", old, new]) == 0
        out = capsys.readouterr().out
        assert "will OSR (plan verified" in out
        assert "DSU-OM00" in out
        assert "predicted to ABORT" not in out

    def test_json_output_is_machine_readable(self, doomed_files, capsys):
        import json

        old, new = doomed_files
        assert main(["dsu-lint", old, new, "--json", "--paper-fidelity"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["update"] == "1.0->2.0"
        assert payload["predicted_abort"] == "safepoint/timeout"
        assert payload["errors"] >= 1
        assert any(
            d["code"] == "DSU-SP01" for d in payload["diagnostics"]
        )
        assert "Loop.spin()V" in payload["predicted_restricted"]

    def test_json_output_carries_osr_plans_by_default(self, doomed_files,
                                                      capsys):
        import json

        old, new = doomed_files
        assert main(["dsu-lint", old, new, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicted_abort"] == ""
        assert payload["errors"] == 0
        plans = payload["osr_plans"]
        assert plans["fully_planned"]
        assert ["Loop", "spin", "()V"] in [
            p["method"] for p in plans["plans"]
        ]
        assert not plans["refusals"]

    def test_explain_follows_the_paper_fidelity_flag(self, doomed_files,
                                                     capsys):
        # --explain gives the in-loop OSR verdict only when the osrmap
        # pass runs, as plain dsu-lint does.
        old, new = doomed_files
        assert main(["dsu-lint", old, new, "--explain", "Loop.spin"]) == 0
        assert "in-loop OSR:" in capsys.readouterr().out
        assert main(["dsu-lint", old, new, "--paper-fidelity",
                     "--explain", "Loop.spin"]) == 0
        out = capsys.readouterr().out
        assert "category 1 (restricted)" in out
        assert "in-loop OSR" not in out

    def test_app_pair_mode_finds_the_jetty_abort(self, capsys):
        code = main([
            "dsu-lint", "--app", "jetty",
            "--from-version", "5.1.2", "--to-version", "5.1.3",
            "--paper-fidelity",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "jetty 5.1.2->5.1.3" in out
        assert "DSU-SP01" in out
        assert "PoolThread.run" in out

    def test_app_pair_mode_plans_the_jetty_rescue(self, capsys):
        code = main([
            "dsu-lint", "--app", "jetty",
            "--from-version", "5.1.2", "--to-version", "5.1.3",
            "--osr-plan",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PoolThread.run" in out
        assert "plan verified" in out

    def test_check_expected_accepts_a_predicted_abort(self, capsys):
        code = main([
            "dsu-lint", "--app", "jetty",
            "--from-version", "5.1.2", "--to-version", "5.1.3",
            "--check-expected", "--json",
        ])
        assert code == 0

    def test_usage_error_without_inputs(self, capsys):
        assert main(["dsu-lint"]) == 2
        assert "needs either" in capsys.readouterr().err

    def test_json_output_does_not_depend_on_the_hash_seed(self):
        """Same-depth diagnostics (javaemail's three ``run`` loops) used to
        come out in set iteration order."""
        import os
        import subprocess
        import sys

        import repro

        def lint(hash_seed):
            env = dict(
                os.environ, PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
            )
            return subprocess.run(
                [sys.executable, "-m", "repro", "dsu-lint",
                 "--app", "javaemail", "--json"],
                env=env, check=True, capture_output=True, text=True,
            ).stdout

        assert lint("0") == lint("1")


class TestDsuLintMinimization:
    """--explain / --superset-gate / --sizes-out on the semantic-diff
    minimizer's flagship update (javaemail 1.3.1->1.3.2, the paper's
    Figure-3 example)."""

    JE_PAIR = ["dsu-lint", "--app", "javaemail",
               "--from-version", "1.3.1", "--to-version", "1.3.2"]

    def test_explain_escaped_category2_method(self, capsys):
        assert main(self.JE_PAIR + ["--explain", "Pop3Processor.run"]) == 0
        out = capsys.readouterr().out
        assert "Pop3Processor.run()V" in out
        assert "category-2 escape" in out
        assert "keeps flattened slot" in out

    def test_explain_restricted_method_shows_stale_site(self, capsys):
        assert main(self.JE_PAIR + ["--explain", "SMTPSender.run"]) == 0
        out = capsys.readouterr().out
        assert "category 2 (restricted)" in out
        assert "STALE" in out
        assert "forwardAddresses" in out

    def test_explain_unknown_method(self, capsys):
        assert main(self.JE_PAIR + ["--explain", "Nope.missing"]) == 0
        assert "no method matching" in capsys.readouterr().out

    def test_superset_gate_and_sizes_out(self, tmp_path, capsys):
        import json

        sizes = tmp_path / "sizes.json"
        code = main([
            "dsu-lint", "--app", "jetty",
            "--from-version", "5.1.1", "--to-version", "5.1.2",
            "--superset-gate", "--sizes-out", str(sizes), "--json",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "shrank on 1 of 1" in captured.err
        (row,) = json.loads(sizes.read_text())
        assert row["superset_gate"] == "ok"
        assert row["restricted_after"] < row["restricted_before"]
        assert row["escaped_category2"] >= 1

    def test_superset_gate_requires_app_mode(self, program_files, capsys):
        old, new = program_files
        assert main(["dsu-lint", old, new, "--superset-gate"]) == 2
        assert "--superset-gate needs" in capsys.readouterr().err


class TestTrace:
    def test_trace_bundled_update_writes_artifact(self, tmp_path, capsys,
                                                  monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        code = main(["trace", "--app", "crossftp", "--update", "1.07-1.08",
                     "--spans", "--min-span-ms", "0.05"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Per-update pause breakdown" in captured.out
        assert "dsu.update" in captured.out  # --spans tree
        trace_path = tmp_path / "crossftp-1.07-1.08.trace.json"
        assert trace_path.exists()
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"dsu.update", "dsu.safepoint.scan", "dsu.classload",
                "gc.collect"} <= names

    def test_trace_rejects_unknown_app_and_pair(self, capsys):
        assert main(["trace", "--app", "nope", "--update", "1-2"]) == 2
        assert "unknown app" in capsys.readouterr().err
        assert main(["trace", "--app", "jetty", "--update", "9.9-9.8"]) == 2
        assert "unknown update" in capsys.readouterr().err
