"""Unit tests for the osrmap pass (``repro.analysis.osrmap``): the static
planner that proves — or refuses to prove — an in-loop frame remap for
every changed method whose frames can block forever.

Covers the verified plans for the paper's two rescued aborts (jetty
5.1.3, javaemail 1.3) and a set of adversarial mutants that each break
one soundness condition and must be *refused* with the right DSU-OM
code, never mis-planned.
"""

import pytest

from repro.analysis import analyze_update
from repro.analysis.osrmap import (
    OSRPlan,
    OSRRefusal,
    compute_osr_plans,
    loop_heads,
    parkable_pcs,
)
from repro.analysis.report import (
    CODE_OSR_BACKEDGE,
    CODE_OSR_COMPENSATION,
    CODE_OSR_LOCALS,
    CODE_OSR_STACK,
    CODE_OSR_UNSUPPORTED,
)
from repro.compiler.compile import compile_source
from repro.dsu.upt import prepare_update
from repro.harness.updates import AppDriver


SPIN_KEY = ("Loop", "spin", "()V")

SPIN_V1 = """
class Loop {
    static int n;
    static void spin() {
        while (true) { Sys.sleep(5); n = n + 1; }
    }
}
class Main { static void main() { Loop.spin(); } }
"""


def plans_for(v1_source, v2_source):
    old = compile_source(v1_source, version="1.0")
    new = compile_source(v2_source, version="2.0")
    prepared = prepare_update(old, new, "1.0", "2.0")
    return compute_osr_plans(old, prepared)


def app_plans(app, from_version, to_version):
    driver = AppDriver.for_app(app)
    prepared = driver.prepare_pair(from_version, to_version)
    return compute_osr_plans(driver.classfiles(from_version), prepared)


class TestPlannedSpinner:
    def test_changed_loop_body_gets_a_verified_plan(self):
        v2 = SPIN_V1.replace("n = n + 1;", "n = n + 2;")
        report = plans_for(SPIN_V1, v2)
        assert report.targets == [SPIN_KEY]
        assert report.fully_planned
        plan = report.plans[SPIN_KEY]
        assert isinstance(plan, OSRPlan)
        # The loop head maps onto the new loop head and every parkable pc
        # of the old body has a destination.
        assert plan.back_edges
        for old_head, new_head in plan.back_edges:
            assert plan.pc_map[old_head] == new_head
        assert set(plan.parkable) <= set(plan.pc_map)

    def test_plan_is_pure_data(self):
        v2 = SPIN_V1.replace("n = n + 1;", "n = n + 2;")
        report = plans_for(SPIN_V1, v2)
        payload = report.to_dict()
        assert payload["fully_planned"]
        assert payload["plans"][0]["method"] == list(SPIN_KEY)
        mappings = report.mappings()
        assert SPIN_KEY in mappings
        assert mappings[SPIN_KEY].pc_map == report.plans[SPIN_KEY].pc_map

    def test_unchanged_spinner_is_not_a_target(self):
        # Nothing changed about the loop method itself (only a helper):
        # its frames are not restricted, so nothing needs a remap.
        v1 = SPIN_V1.replace(
            "class Main", "class Util { static int pad() { return 1; } }\n"
            "class Main"
        )
        v2 = v1.replace("return 1;", "return 2;")
        report = plans_for(v1, v2)
        assert SPIN_KEY not in report.targets
        assert not report.fully_planned  # vacuously: no targets, no rescue

    def test_compensation_seeds_new_constant_local(self):
        # The new body introduces a local with a provable constant
        # initializer that is live inside the loop: the plan must carry a
        # compensation assignment for it.
        v2 = SPIN_V1.replace(
            "static void spin() {\n        while (true) { Sys.sleep(5); n = n + 1; }",
            "static void spin() {\n        int step = 3;\n"
            "        while (true) { Sys.sleep(5); n = n + step; }",
        )
        report = plans_for(SPIN_V1, v2)
        assert report.fully_planned, report.refusals
        plan = report.plans[SPIN_KEY]
        assert 3 in plan.compensation.values()


class TestAdversarialMutants:
    """Each mutant breaks one condition a sound remap depends on; the
    planner must refuse, not guess."""

    def refusal(self, v2):
        report = plans_for(SPIN_V1, v2)
        assert SPIN_KEY in report.targets
        assert not report.fully_planned
        refusal = report.refusals[SPIN_KEY]
        assert isinstance(refusal, OSRRefusal)
        return refusal

    def test_restructured_loop_refused_om01(self):
        # The new body replaces the spin loop with a bounded one of a
        # different shape plus trailing code: the old back-edge target has
        # no matching loop head.
        v2 = SPIN_V1.replace(
            "while (true) { Sys.sleep(5); n = n + 1; }",
            "n = 1000; Sys.halt();",
        )
        refusal = self.refusal(v2)
        assert refusal.code == CODE_OSR_BACKEDGE
        assert "loop" in refusal.reason

    def test_removed_blocking_call_site_refused_om02(self):
        # One of the two old sleep call sites disappears: a frame parked
        # beneath that callee has nowhere to land in the new body.
        v1 = SPIN_V1.replace(
            "while (true) { Sys.sleep(5); n = n + 1; }",
            "while (true) { Sys.sleep(5); Sys.sleep(7); n = n + 1; }",
        )
        v2 = v1.replace(
            "while (true) { Sys.sleep(5); Sys.sleep(7); n = n + 1; }",
            "while (true) { Sys.sleep(5); n = n + 1; }",
        )
        old = compile_source(v1, version="1.0")
        prepared = prepare_update(
            old, compile_source(v2, version="2.0"), "1.0", "2.0"
        )
        report = compute_osr_plans(old, prepared)
        assert SPIN_KEY in report.targets
        refusal = report.refusals[SPIN_KEY]
        assert refusal.code == CODE_OSR_STACK
        assert "parkable" in refusal.reason

    def test_dropped_live_local_refused_om03(self):
        # Both bodies share an alignable prologue and loop skeleton, but
        # the old body's loop-live local has no counterpart in the new
        # one: a frame's `a` value would have nowhere to go.
        v1 = SPIN_V1.replace(
            "static void spin() {\n        while (true) { Sys.sleep(5); n = n + 1; }",
            "static void spin() {\n        n = 0;\n        int a = 7;\n"
            "        while (true) { Sys.sleep(5); n = n + a; }",
        )
        v2 = v1.replace(
            "static void spin() {\n        n = 0;\n        int a = 7;\n"
            "        while (true) { Sys.sleep(5); n = n + a; }",
            "static void spin() {\n        n = 0;\n"
            "        while (true) { Sys.sleep(5); n = n + 8; }",
        )
        old = compile_source(v1, version="1.0")
        prepared = prepare_update(
            old, compile_source(v2, version="2.0"), "1.0", "2.0"
        )
        report = compute_osr_plans(old, prepared)
        assert SPIN_KEY in report.targets
        refusal = report.refusals[SPIN_KEY]
        assert refusal.code == CODE_OSR_LOCALS

    def test_unprovable_initializer_refused_om04(self):
        # The new body's extra loop-live local is seeded from a call, not
        # a constant: no compensation assignment can be proven.
        v2 = SPIN_V1.replace(
            "static void spin() {\n        while (true) { Sys.sleep(5); n = n + 1; }",
            "static void spin() {\n        int step = Loop.pick();\n"
            "        while (true) { Sys.sleep(5); n = n + step; }",
        ).replace(
            "class Main", "class Unused { }\nclass Main"
        ).replace(
            "static void spin()",
            "static int pick() { return 2; }\n    static void spin()",
        )
        refusal = self.refusal(v2)
        assert refusal.code == CODE_OSR_COMPENSATION
        assert "initializer" in refusal.reason

    def test_signature_change_refused_om05(self):
        v2 = SPIN_V1.replace(
            "static void spin() {", "static void spin(int k) {"
        ).replace("Loop.spin();", "Loop.spin(0);")
        refusal = self.refusal(v2)
        assert refusal.code == CODE_OSR_UNSUPPORTED
        assert "does not exist" in refusal.reason


class TestCfgHelpers:
    def test_loop_heads_and_parkable_pcs(self):
        classfiles = compile_source(SPIN_V1, version="1.0")
        method = classfiles["Loop"].get_method("spin", "()V")
        heads = loop_heads(method.instructions)
        assert len(heads) == 1
        reachable = set(range(len(method.instructions)))
        parkable = parkable_pcs(method.instructions, reachable)
        assert 0 in parkable
        assert heads[0] in parkable
        invoke_pcs = [
            pc for pc, instr in enumerate(method.instructions)
            if instr.op.startswith("INVOKE")
        ]
        assert set(invoke_pcs) <= set(parkable)


class TestRealUpdates:
    """The two historical aborts must be fully planned; the idle-only
    crossftp updates must not be rescued."""

    def test_jetty_513_fully_planned(self):
        report = app_plans("jetty", "5.1.2", "5.1.3")
        names = {f"{k[0]}.{k[1]}" for k in report.targets}
        assert names == {"PoolThread.run", "ThreadedServer.acceptSocket"}
        assert report.fully_planned
        assert not report.refusals
        for plan in report.plans.values():
            assert set(plan.parkable) <= set(plan.pc_map)

    def test_javaemail_13_fully_planned(self):
        report = app_plans("javaemail", "1.2.4", "1.3")
        names = {f"{k[0]}.{k[1]}" for k in report.targets}
        assert {"SMTPProcessor.run", "Pop3Processor.run"} <= names
        assert report.fully_planned
        assert not report.refusals

    def test_crossftp_stays_idle_only(self):
        # crossftp's accept loop blocks in Net.accept indefinitely, but
        # none of its updates change that loop: no targets, no rescue.
        report = app_plans("crossftp", "1.07", "1.08")
        assert report.targets == []
        assert not report.fully_planned

    def test_analyze_update_threads_the_report(self):
        driver = AppDriver.for_app("jetty")
        prepared = driver.prepare_pair("5.1.2", "5.1.3")
        report = analyze_update(driver.classfiles("5.1.2"), prepared)
        assert report.osr_plans is not None
        assert report.osr_plans.fully_planned
        assert report.predicted_abort == ""
        rendered = report.render()
        assert "will OSR (plan verified" in rendered
        assert "osr-plan:" in rendered
