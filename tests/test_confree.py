"""Con-freeness verdicts and the zero-pause immediate-bypass path.

Three layers: unit tests for every CF rule on synthetic programs, the
22-update bundled sweep (the verdicts must match the registry's
bypass-eligible set exactly, including adversarial mutants of a
bypass-eligible update), and dynamic tests of the engine's bypass apply
mode — zero pause, unchanged app behavior, stale-frame draining, and
held-transaction commit/rollback.
"""

import pytest

from repro.analysis.confree import (
    RULE_CHANGED_REACHES_CHANGED,
    RULE_CLOSURE_RESOLVED,
    RULE_NO_BLACKLIST,
    RULE_NO_CLASS_SET_CHANGE,
    RULE_NO_CLASS_UPDATES,
    RULE_NO_CLINIT_CHANGE,
    RULE_NO_METHOD_SET_CHANGE,
    RULE_NONEMPTY,
    VERDICT_BYPASS,
    VERDICT_SAFEPOINT,
    classify_update,
)
from repro.apps.registry import APPS, EXPECTED_BYPASS_ELIGIBLE, update_pairs
from repro.dsu.engine import UpdateRequest
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.dsu.specification import REASON_NOT_CON_FREE
from repro.harness.updates import AppDriver

from tests.dsu_helpers import UpdateFixture


BASE = """
class Greeter { static string greet() { return "v1"; } }
class Helper { static int twice(int x) { return x + x; } }
class Main {
    static int rounds;
    static void main() {
        while (rounds < 40) {
            Sys.print(Greeter.greet());
            Sys.sleep(10);
            rounds = rounds + 1;
        }
    }
}
"""

BASE_V2 = BASE.replace('return "v1";', 'return "v2";')


def verdict_for(v1_source, v2_source, blacklist=()):
    fixture = UpdateFixture(v1_source)
    prepared = fixture.prepare(v2_source, blacklist=blacklist)
    return classify_update(fixture.classfiles["1.0"], prepared)


def violated(verdict):
    return {step.rule for step in verdict.violations()}


# ---------------------------------------------------------------------------
# unit tests: one per rule


class TestShapeRules:
    def test_body_only_update_is_bypass_eligible(self):
        verdict = verdict_for(BASE, BASE_V2)
        assert verdict.eligible
        assert verdict.verdict == VERDICT_BYPASS
        assert verdict.violations() == []

    def test_field_added_violates_shape01(self):
        v2 = BASE_V2.replace("class Greeter {", "class Greeter { int pad;")
        verdict = verdict_for(BASE, v2)
        assert not verdict.eligible
        assert RULE_NO_CLASS_UPDATES in violated(verdict)
        assert any(step.subject == "Greeter" and not step.ok
                   for step in verdict.steps)

    def test_class_added_violates_shape02(self):
        verdict = verdict_for(BASE, BASE_V2 + "\nclass Extra { int x; }\n")
        assert RULE_NO_CLASS_SET_CHANGE in violated(verdict)

    def test_method_added_violates_shape03(self):
        v2 = BASE_V2.replace(
            "class Greeter {",
            "class Greeter { static int more() { return 3; }",
        )
        verdict = verdict_for(BASE, v2)
        assert RULE_NO_METHOD_SET_CHANGE in violated(verdict)

    def test_method_deleted_violates_shape03(self):
        v2 = BASE_V2.replace(
            "class Helper { static int twice(int x) { return x + x; } }",
            "class Helper { }",
        )
        verdict = verdict_for(BASE, v2)
        assert RULE_NO_METHOD_SET_CHANGE in violated(verdict)
        assert any("Helper.twice" in step.subject and not step.ok
                   for step in verdict.steps)

    def test_signature_change_is_not_bypass_eligible(self):
        v2 = BASE_V2.replace(
            "static int twice(int x) { return x + x; }",
            "static int twice(int x, int y) { return x + y; }",
        )
        verdict = verdict_for(BASE, v2)
        # A changed descriptor is a delete+add pair: both sides of
        # CF-SHAPE03 fire.
        assert RULE_NO_METHOD_SET_CHANGE in violated(verdict)

    def test_blacklist_violates_shape05(self):
        verdict = verdict_for(
            BASE, BASE_V2, blacklist=[("Helper", "twice", "(I)I")]
        )
        assert RULE_NO_BLACKLIST in violated(verdict)

    def test_clinit_change_violates_shape06(self):
        v1 = BASE.replace("class Main {", "class Main { static int seed = 5;")
        v2 = v1.replace('return "v1";', 'return "v2";').replace(
            "static int seed = 5;", "static int seed = 6;"
        )
        verdict = verdict_for(v1, v2)
        assert RULE_NO_CLINIT_CHANGE in violated(verdict)

    def test_empty_update_violates_shape07(self):
        verdict = verdict_for(BASE, BASE)
        assert not verdict.eligible
        assert RULE_NONEMPTY in violated(verdict)


CALLS = """
class Work {
    static int outer(int n) { return Work.inner(n) + 1; }
    static int inner(int n) { return n + 1; }
}
class Main { static void main() { Sys.print("" + Work.outer(1)); } }
"""


class TestCallGraphRules:
    def test_changed_method_calling_changed_method_violates_call01(self):
        v2 = CALLS.replace("return Work.inner(n) + 1;",
                           "return Work.inner(n) + 2;")
        v2 = v2.replace("return n + 1;", "return n + 2;")
        verdict = verdict_for(CALLS, v2)
        assert not verdict.eligible
        assert RULE_CHANGED_REACHES_CHANGED in violated(verdict)
        bad = [step for step in verdict.steps
               if step.rule == RULE_CHANGED_REACHES_CHANGED and not step.ok]
        assert any("Work.outer" in step.subject for step in bad)
        # inner reaches nothing changed: its own CALL01 step passes.
        assert any(step.rule == RULE_CHANGED_REACHES_CHANGED and step.ok
                   and "Work.inner" in step.subject
                   for step in verdict.steps)

    def test_changed_leaf_method_alone_is_eligible(self):
        v2 = CALLS.replace("return n + 1;", "return n + 2;")
        verdict = verdict_for(CALLS, v2)
        assert verdict.eligible, [str(s) for s in verdict.violations()]

    def test_recursive_changed_method_violates_call01(self):
        v1 = """
class Work {
    static int count(int n) {
        if (n < 1) { return 0; }
        return 1 + Work.count(n - 1);
    }
}
class Main { static void main() { Sys.print("" + Work.count(3)); } }
"""
        v2 = v1.replace("return 1 + Work.count(n - 1);",
                        "return 2 + Work.count(n - 1);")
        verdict = verdict_for(v1, v2)
        assert RULE_CHANGED_REACHES_CHANGED in violated(verdict)

    def test_steps_for_selects_one_method(self):
        v2 = CALLS.replace("return n + 1;", "return n + 2;")
        verdict = verdict_for(CALLS, v2)
        steps = verdict.steps_for("Work.inner((I)I)".replace("((I)I)", "(I)I"))
        assert steps and all("Work.inner" in step.subject for step in steps)

    def test_to_dict_shape(self):
        verdict = verdict_for(BASE, BASE_V2)
        payload = verdict.to_dict()
        assert payload["verdict"] == VERDICT_BYPASS
        assert payload["eligible"] is True
        assert payload["violated_rules"] == []
        assert all({"rule", "subject", "ok", "detail"} <= set(step)
                   for step in payload["steps"])


# ---------------------------------------------------------------------------
# the bundled sweep: verdicts must match the registry exactly


def _bundled_verdict(app, from_version, to_version):
    driver = AppDriver.for_app(app)
    prepared = driver.prepare_pair(from_version, to_version)
    return classify_update(driver.classfiles(from_version), prepared)


class TestBundledSweep:
    def test_verdicts_match_registry_on_all_22_updates(self):
        eligible = set()
        for app in APPS:
            for from_version, to_version in update_pairs(app):
                verdict = _bundled_verdict(app, from_version, to_version)
                if verdict.eligible:
                    eligible.add((app, from_version, to_version))
        assert eligible == set(EXPECTED_BYPASS_ELIGIBLE)

    @pytest.mark.parametrize("mutate, rule", [
        (lambda s: s.replace("class RequestParser {",
                             "class RequestParser { int advPad;", 1),
         RULE_NO_CLASS_UPDATES),
        (lambda s: s.replace(
            "class RequestParser {",
            "class RequestParser { static int adv() { return 1; }", 1),
         RULE_NO_METHOD_SET_CHANGE),
        (lambda s: s + "\nclass AdvExtra { int x; }\n",
         RULE_NO_CLASS_SET_CHANGE),
    ])
    def test_adversarial_mutants_of_eligible_update_are_rejected(
        self, mutate, rule
    ):
        """Mutating the bypass-eligible jetty 5.1.0->5.1.1 update into a
        non-con-free shape must flip the static verdict."""
        from repro.compiler.compile import compile_source
        from repro.dsu.upt import prepare_update

        info = APPS["jetty"]
        old_source = info.versions["5.1.0"]
        new_source = mutate(info.versions["5.1.1"])
        assert new_source != info.versions["5.1.1"], "mutation anchor missed"
        old = compile_source(old_source, version="5.1.0")
        new = compile_source(new_source, version="5.1.1adv")
        prepared = prepare_update(old, new, "5.1.0", "5.1.1adv")
        verdict = classify_update(old, prepared)
        assert not verdict.eligible
        assert rule in violated(verdict)
        assert verdict.verdict == VERDICT_SAFEPOINT


# ---------------------------------------------------------------------------
# dynamic: the engine's immediate-bypass apply mode


def submit_bypass(fixture, prepared, at_ms=55, bypass="auto"):
    holder = {}
    request = UpdateRequest(
        prepared,
        policy=UpdatePolicy(retry=RetryPolicy(timeout_ms=2_000.0),
                            bypass=bypass),
    )
    fixture.vm.events.schedule(
        at_ms, lambda: holder.update(result=fixture.engine.submit(request))
    )
    return holder


class TestImmediateBypass:
    def test_bypass_applies_with_literally_zero_pause(self):
        fixture = UpdateFixture(BASE).start()
        holder = submit_bypass(fixture, fixture.prepare(BASE_V2))
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert result.bypassed
        assert result.bc_verdict == VERDICT_BYPASS
        assert result.total_pause_ms == 0.0
        assert result.phase_ms == {}
        assert result.safepoint_wait_ms == 0.0
        assert result.retry_rounds == 0
        assert result.objects_transformed == 0
        counters = fixture.vm.metrics.counters
        assert counters["dsu.updates_bypassed"].value == 1

    def test_bypass_changes_behavior_cleanly(self):
        fixture = UpdateFixture(BASE).start()
        holder = submit_bypass(fixture, fixture.prepare(BASE_V2))
        fixture.run(until_ms=2_000)
        assert holder["result"].succeeded
        assert fixture.vm.trap_log == []
        assert "v1" in fixture.console and "v2" in fixture.console
        switch = fixture.console.index("v2")
        assert all(line == "v1" for line in fixture.console[:switch])
        assert all(line == "v2" for line in fixture.console[switch:])

    def test_bypass_off_takes_the_safepoint_path(self):
        fixture = UpdateFixture(BASE).start()
        holder = submit_bypass(fixture, fixture.prepare(BASE_V2), bypass="off")
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert result.succeeded and not result.bypassed
        assert result.bc_verdict == ""

    def test_bypass_require_aborts_ineligible_updates(self):
        fixture = UpdateFixture(BASE).start()
        v2 = BASE_V2.replace("class Greeter {", "class Greeter { int pad;")
        holder = submit_bypass(fixture, fixture.prepare(v2), bypass="require")
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert not result.succeeded
        assert result.reason_code == REASON_NOT_CON_FREE
        assert result.bc_verdict == VERDICT_SAFEPOINT
        # The abort is pre-flight: the app never noticed.
        assert fixture.vm.trap_log == []

    def test_bypass_auto_falls_back_to_safepoint(self):
        fixture = UpdateFixture(BASE).start()
        v2 = BASE_V2.replace("class Greeter {", "class Greeter { int pad;")
        holder = submit_bypass(fixture, fixture.prepare(v2), bypass="auto")
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert not result.bypassed
        assert result.bc_verdict == VERDICT_SAFEPOINT
        assert result.total_pause_ms > 0.0

    def test_stale_frames_finish_on_old_code_and_drain(self):
        v1 = """
class Worker {
    static int chunk(int n) {
        int i = 0;
        while (i < n) { Sys.sleep(5); i = i + 1; }
        return 1;
    }
}
class Main {
    static int rounds;
    static void main() {
        while (rounds < 12) {
            Sys.print("r" + Worker.chunk(10));
            rounds = rounds + 1;
        }
    }
}
"""
        v2 = v1.replace("return 1;", "return 2;")
        fixture = UpdateFixture(v1).start()
        # 75 ms lands mid-chunk: one in-flight frame of the changed method.
        holder = submit_bypass(fixture, fixture.prepare(v2), at_ms=75)
        fixture.run(until_ms=3_000)
        result = holder["result"]
        assert result.succeeded and result.bypassed
        assert result.bypass_stale_frames == 1
        counters = fixture.vm.metrics.counters
        assert counters["dsu.bypass_stale_frames_retired"].value == 1
        # The in-flight activation completed on the old body ("r1"), every
        # later invocation bound the new one ("r2").
        assert "r1" in fixture.console and "r2" in fixture.console
        switch = fixture.console.index("r2")
        assert all(line == "r1" for line in fixture.console[:switch])
        assert all(line == "r2" for line in fixture.console[switch:])
