"""Tests for the ``dsu-lint`` static update-safety analyzer: call-graph
construction, the restriction closure, safe-point reachability, transformer
type checking, the engine's pre-flight hook, and the superset guarantee
against the runtime restricted sets."""

import pytest

from repro.analysis import (
    analyze_update,
    build_call_graph,
    method_may_never_return,
    never_return_closure,
)
from repro.analysis.report import (
    CODE_BLOCKING_NATIVE,
    CODE_CAT2_NEVER_RETURNS,
    CODE_FIELD_UNASSIGNED,
    CODE_STALE_CATEGORY2,
    CODE_TRANSFORMER_READ,
    CODE_TRANSFORMER_WRITE,
    CODE_UNREACHABLE_SAFEPOINT,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
)
from repro.bytecode.instructions import Instr
from repro.compiler.compile import compile_source
from repro.dsu.engine import UpdateRequest
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.dsu.upt import TRANSFORMERS_CLASS, prepare_update


# ---------------------------------------------------------------------------
# Pass 1: the call graph


HIERARCHY = """
class Animal { int noise() { return 0; } }
class Dog extends Animal { int noise() { return 1; } }
class Pug extends Dog { }
class Cat extends Animal { int noise() { return 3; } }
class Zoo {
    static int poll(Animal a) { return a.noise(); }
    static int pollDog(Dog d) { return d.noise(); }
    static int pollPug(Pug p) { return p.noise(); }
    static void main() { Zoo.poll(new Dog()); }
}
"""


class TestCallGraph:
    def graph(self, source=HIERARCHY):
        return build_call_graph(compile_source(source, version="1.0"))

    def test_virtual_dispatch_covers_every_override(self):
        graph = self.graph()
        callees = graph.callees[("Zoo", "poll", "(LAnimal;)I")]
        noise = {k for k in callees if k[1] == "noise"}
        assert noise == {
            ("Animal", "noise", "()I"),
            ("Dog", "noise", "()I"),
            ("Cat", "noise", "()I"),
        }

    def test_virtual_dispatch_narrows_with_receiver_type(self):
        graph = self.graph()
        callees = graph.callees[("Zoo", "pollDog", "(LDog;)I")]
        noise = {k for k in callees if k[1] == "noise"}
        # A Dog receiver can dispatch Dog's override (Pug inherits it),
        # but never Animal's or Cat's.
        assert noise == {("Dog", "noise", "()I")}

    def test_inherited_method_resolves_through_superclass_chain(self):
        graph = self.graph()
        callees = graph.callees[("Zoo", "pollPug", "(LPug;)I")]
        # Pug declares no noise(): the chain walks up to Dog.
        assert ("Dog", "noise", "()I") in callees

    def test_callers_is_the_reverse_edge_set(self):
        graph = self.graph()
        assert ("Zoo", "poll", "(LAnimal;)I") in graph.callers[
            ("Cat", "noise", "()I")
        ]

    def test_recursion_shows_up_in_transitive_callees(self):
        graph = self.graph(
            "class Fact { static int fact(int n) { "
            "if (n < 2) { return 1; } return n * Fact.fact(n - 1); } }"
        )
        key = ("Fact", "fact", "(I)I")
        assert key in graph.callees[key]
        assert key in graph.transitive_callees(key)

    def test_depths_rank_from_thread_roots(self):
        graph = self.graph()
        depths = graph.depths()
        assert depths[("Zoo", "main", "()V")] == 0
        assert depths[("Zoo", "poll", "(LAnimal;)I")] == 1
        # Dog.noise is also reachable from the uncalled pollDog root at
        # depth 1; Cat.noise is only reachable through poll.
        assert depths[("Cat", "noise", "()I")] == 2

    def test_missing_owner_is_recorded_not_dropped(self):
        classfiles = compile_source(
            "class Helper { static int assist() { return 1; } }"
            "class Caller { static int go() { return Helper.assist(); } }",
            version="1.0",
        )
        del classfiles["Helper"]
        graph = build_call_graph(classfiles)
        # (Object.<init> is also unresolved here: the prelude is absent
        # from a bare compile, which is exactly the point of recording.)
        sites = [s for s in graph.unresolved if s.owner == "Helper"]
        assert len(sites) == 1
        site = sites[0]
        assert site.caller == ("Caller", "go", "()I")
        assert (site.owner, site.name) == ("Helper", "assist")
        assert "INVOKESTATIC Helper.assist" in site.describe()

    def test_broken_superclass_chain_is_unresolved(self):
        classfiles = compile_source(
            "class Base { int m() { return 1; } }"
            "class Mid extends Base { }"
            "class Use { static int go(Mid x) { return x.m(); } }",
            version="1.0",
        )
        del classfiles["Base"]
        graph = build_call_graph(classfiles)
        assert any(
            site.caller == ("Use", "go", "(LMid;)I") and site.name == "m"
            for site in graph.unresolved
        )


# ---------------------------------------------------------------------------
# Pass 3 plumbing: the may-never-return CFG analysis


NEVER_RETURN = """
class Spin {
    static int n;
    static void forever() { while (true) { n = n + 1; } }
    static void bounded() { int i = 0; while (i < 10) { i = i + 1; } }
    static void escape() {
        while (true) { if (n > 5) { return; } n = n + 1; }
    }
    static void outer() { Spin.forever(); }
    static void clean() { Spin.bounded(); }
}
"""


class TestNeverReturn:
    def test_cfg_classification(self):
        spin = compile_source(NEVER_RETURN, version="1.0")["Spin"]
        assert method_may_never_return(spin.get_method("forever", "()V"))
        assert not method_may_never_return(spin.get_method("bounded", "()V"))
        assert not method_may_never_return(spin.get_method("escape", "()V"))

    def test_caller_is_pinned_beneath_nonreturning_callee(self):
        graph = build_call_graph(compile_source(NEVER_RETURN, version="1.0"))
        culprits = never_return_closure(graph)
        forever = ("Spin", "forever", "()V")
        assert culprits[forever] == forever
        assert culprits[("Spin", "outer", "()V")] == forever
        assert ("Spin", "clean", "()V") not in culprits

    def test_the_map_is_built_once_per_graph(self):
        graph = build_call_graph(compile_source(NEVER_RETURN, version="1.0"))
        assert never_return_closure(graph) is never_return_closure(graph)

    def test_one_analysis_classifies_each_method_once(self, monkeypatch):
        # The osrmap and reachability passes share the graph's map, so
        # one analyze_update walks each method's CFG exactly once.
        from repro.analysis import reachability

        classify = reachability.method_may_never_return
        calls = {}

        def counting(method):
            calls[id(method)] = calls.get(id(method), 0) + 1
            return classify(method)

        monkeypatch.setattr(reachability, "method_may_never_return", counting)
        v2 = SERVER_V1.replace("beat = beat + 1;", "beat = beat + 2;")
        _, _, report = analyze_pair(SERVER_V1, v2)
        assert report.osr_plans is not None
        assert calls and set(calls.values()) == {1}


# ---------------------------------------------------------------------------
# Passes 2+3 end to end: closure, staleness, safe-point reachability


SERVER_V1 = """
class Server {
    static int beat;
    static void tick() { beat = beat + 1; }
    static void host() { Server.tick(); }
    static void run() { while (true) { Server.host(); } }
}
class Main { static void main() { Server.run(); } }
"""


def analyze_pair(v1, v2, **kwargs):
    old = compile_source(v1, version="1.0")
    prepared = prepare_update(
        old, compile_source(v2, version="2.0"), "1.0", "2.0", **kwargs
    )
    return old, prepared, analyze_update(old, prepared)


class TestClosureAndReachability:
    def test_inline_host_joins_the_predicted_set(self):
        v2 = SERVER_V1.replace("beat = beat + 1;", "beat = beat + 2;")
        _, prepared, report = analyze_pair(SERVER_V1, v2)
        tick = ("Server", "tick", "()V")
        host = ("Server", "host", "()V")
        assert tick in prepared.spec.category1()
        assert tick in report.predicted_restricted
        # host is unchanged, but any opt compile of it would inline tick.
        assert host not in prepared.spec.category1()
        assert host in report.predicted_restricted
        # tick returns, so nothing pins the safe point.
        assert not report.by_code(CODE_UNREACHABLE_SAFEPOINT)
        assert report.predicted_abort == ""

    def test_changed_infinite_loop_predicts_safepoint_abort(self):
        v2 = SERVER_V1.replace(
            "while (true) { Server.host(); }",
            "while (true) { Server.host(); Server.host(); }",
        )
        _, _, report = analyze_pair(SERVER_V1, v2)
        findings = report.by_code(CODE_UNREACHABLE_SAFEPOINT)
        assert [d.severity for d in findings] == [SEVERITY_ERROR]
        assert report.has_errors
        assert report.predicted_abort == "safepoint/timeout"
        run_key = ("Server", "run", "()V")
        assert report.blacklist_suggestions == [run_key]
        assert findings[0].method == run_key
        assert findings[0].suggestion.startswith(
            "blacklist Server.run()V (call-graph depth 1)"
        )

    def test_blacklisted_spinner_gets_no_redundant_suggestion(self):
        _, _, report = analyze_pair(
            SERVER_V1, SERVER_V1.replace("beat + 1", "beat + 2"),
            blacklist=[("Server", "run", "()V")],
        )
        findings = report.by_code(CODE_UNREACHABLE_SAFEPOINT)
        assert len(findings) == 1
        assert findings[0].suggestion == ""
        assert report.blacklist_suggestions == []

    def test_stale_category2_spec_is_an_error(self):
        v1 = (
            "class Box { int v; }"
            "class Reg { static Box make() { return new Box(); } }"
            "class Main { static void main() { } }"
        )
        v2 = v1.replace("int v;", "int v; int w;")
        old = compile_source(v1, version="1.0")
        prepared = prepare_update(
            old, compile_source(v2, version="2.0"), "1.0", "2.0"
        )
        assert prepared.spec.indirect_methods  # Reg.make bakes Box offsets
        dropped = sorted(prepared.spec.indirect_methods)[0]
        prepared.spec.indirect_methods.discard(dropped)
        report = analyze_update(old, prepared)
        findings = report.by_code(CODE_STALE_CATEGORY2)
        assert [d.method for d in findings] == [dropped]
        assert report.has_errors
        # The prediction covers what the spec *should* have restricted.
        assert dropped in report.predicted_restricted
        assert report.predicted_abort == "osr/osr-failed"

    def test_cat2_spinner_warns_but_does_not_doom(self):
        # The javaemail 1.3.2 shape: an unchanged infinite loop whose
        # class layout changed — OSR rescues it while base-compiled. The
        # new field is *prepended* so ``port`` genuinely moves and the
        # semantic-diff minimizer cannot prove the spinner's baked offset
        # stable (appending it would let the method escape restriction
        # entirely — see test_semdiff.py).
        v1 = (
            "class Conf { int port; }"
            "class Srv { static Conf c; static int n;"
            "  static void run() { while (true) { Srv.n = Srv.c.port; } } }"
            "class Main { static void main() { Srv.run(); } }"
        )
        v2 = v1.replace("int port;", "int backlog; int port;")
        _, _, report = analyze_pair(v1, v2)
        findings = report.by_code(CODE_CAT2_NEVER_RETURNS)
        assert [d.severity for d in findings] == [SEVERITY_WARNING]
        assert findings[0].method == ("Srv", "run", "()V")
        assert not report.has_errors
        assert report.predicted_abort == ""


# ---------------------------------------------------------------------------
# Pass 4: transformer type checking


USER_V1 = """
class User {
    string name;
    static int count;
}
class Main { static void main() { } }
"""

USER_V2 = """
class User {
    string name;
    int age;
    static int count;
}
class Main { static void main() { } }
"""

COMPLETE_OVERRIDE = {
    "User": """
    static void jvolveClass(User unused) {
        User.count = v10_User.count;
    }
    static void jvolveObject(User to, v10_User from) {
        to.name = from.name;
        to.age = 7;
    }
"""
}


class TestTransformerChecks:
    def prepared(self, overrides=COMPLETE_OVERRIDE):
        return analyze_pair(
            USER_V1, USER_V2, transformer_overrides=overrides
        )

    def jvolve_object(self, prepared):
        transformers = prepared.transformer_classfiles[TRANSFORMERS_CLASS]
        descriptor = f"(LUser;,L{prepared.prefix}User;)V"
        return transformers.get_method("jvolveObject", descriptor)

    def test_complete_transformer_is_clean(self):
        _, _, report = self.prepared()
        assert not report.has_errors
        assert report.predicted_abort == ""

    def test_read_of_unknown_old_field_is_an_error(self):
        old, prepared, _ = self.prepared()
        method = self.jvolve_object(prepared)
        for pc, instr in enumerate(method.instructions):
            if instr.op == "GETFIELD" and instr.b == "name":
                method.instructions[pc] = Instr("GETFIELD", instr.a, "ghost")
        report = analyze_update(old, prepared)
        findings = report.by_code(CODE_TRANSFORMER_READ)
        assert [d.severity for d in findings] == [SEVERITY_ERROR]
        assert "reads v10_User.ghost" in findings[0].message
        assert "old-version stub" in findings[0].message
        assert report.predicted_abort == "transform/transformer-error"

    def test_write_of_unknown_new_field_is_an_error(self):
        old, prepared, _ = self.prepared()
        method = self.jvolve_object(prepared)
        for pc, instr in enumerate(method.instructions):
            if instr.op == "PUTFIELD" and instr.b == "name":
                method.instructions[pc] = Instr("PUTFIELD", instr.a, "ghost")
        report = analyze_update(old, prepared)
        findings = report.by_code(CODE_TRANSFORMER_WRITE)
        assert [d.severity for d in findings] == [SEVERITY_ERROR]
        assert "writes User.ghost" in findings[0].message
        assert report.predicted_abort == "transform/transformer-error"

    def test_descriptor_incompatible_write_is_an_error(self):
        old, prepared, _ = self.prepared()
        method = self.jvolve_object(prepared)
        for pc, instr in enumerate(method.instructions):
            if instr.op == "PUTFIELD" and instr.b == "name":
                # Retarget the string store at the int field: the field
                # exists, so only abstract interpretation catches it.
                method.instructions[pc] = Instr("PUTFIELD", instr.a, "age")
        report = analyze_update(old, prepared)
        findings = report.by_code(CODE_TRANSFORMER_WRITE)
        assert findings and findings[0].severity == SEVERITY_ERROR
        assert "fails verification" in findings[0].message
        assert report.predicted_abort == "transform/transformer-error"

    def test_dead_store_to_old_stub_warns(self):
        override = {
            "User": COMPLETE_OVERRIDE["User"].replace(
                "to.name = from.name;",
                "to.name = from.name; from.name = to.name;",
            )
        }
        _, _, report = self.prepared(override)
        assert not report.has_errors
        dead = [
            d for d in report.by_code(CODE_TRANSFORMER_WRITE)
            if d.severity == SEVERITY_WARNING
        ]
        assert len(dead) == 1
        assert "the store is dead" in dead[0].message

    def test_unassigned_field_keyed_by_owner(self):
        # No transformer at all for the new field: DSU-PF02.
        _, _, report = self.prepared(overrides=None)
        findings = report.by_code(CODE_FIELD_UNASSIGNED)
        assert any("User.age is new" in d.message for d in findings)


# ---------------------------------------------------------------------------
# The engine pre-flight hook (``lint="warn"`` / ``"strict"``)


SPIN_V1 = """
class Loop {
    static int n;
    static void spin() { while (true) { Sys.sleep(5); n = n + 1; } }
}
class Main { static void main() { Loop.spin(); } }
"""


class TestEnginePreflight:
    def fixture(self):
        from tests.dsu_helpers import UpdateFixture

        return UpdateFixture(SPIN_V1).start()

    def test_strict_mode_refuses_a_doomed_update(self):
        fixture = self.fixture()
        prepared = fixture.prepare(SPIN_V1.replace("n + 1", "n + 2"))
        result = fixture.engine.submit(UpdateRequest(
            prepared,
            policy=UpdatePolicy(retry=RetryPolicy(timeout_ms=500.0),
                                lint="strict"),
        ))
        assert result.status == "aborted"
        assert result.failed_phase == "preflight"
        assert result.reason_code == "lint-rejected"
        assert result.reason.startswith("dsu-lint:")
        assert result.lint_errors >= 1
        assert result.lint_predicted_abort == "safepoint/timeout"
        # The VM was never signalled: no pending update, engine idle.
        assert fixture.engine.active is None
        assert not fixture.vm.update_pending
        assert fixture.engine.history[-1] is result

    def test_warn_mode_records_findings_but_proceeds(self):
        fixture = self.fixture()
        prepared = fixture.prepare(SPIN_V1.replace("n + 1", "n + 2"))
        result = fixture.engine.submit(UpdateRequest(
            prepared,
            policy=UpdatePolicy(retry=RetryPolicy(timeout_ms=200.0),
                                lint="warn"),
        ))
        assert result.lint_errors >= 1
        assert result.lint_predicted_abort == "safepoint/timeout"
        assert result.status != "aborted"
        assert fixture.engine.active is not None
        assert fixture.vm.update_pending

    def test_strict_mode_lets_a_clean_update_through(self):
        clean_v1 = """
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
        from tests.dsu_helpers import UpdateFixture

        fixture = UpdateFixture(clean_v1).start()
        prepared = fixture.prepare(clean_v1.replace('"v1"', '"v2"'))
        result = fixture.engine.submit(UpdateRequest(
            prepared,
            policy=UpdatePolicy(retry=RetryPolicy(timeout_ms=500.0),
                                lint="strict"),
        ))
        assert result.status != "aborted"
        assert result.lint_errors == 0
        assert fixture.vm.update_pending

    def test_unknown_lint_mode_is_rejected(self):
        fixture = self.fixture()
        prepared = fixture.prepare(SPIN_V1.replace("n + 1", "n + 2"))
        with pytest.raises(ValueError):
            UpdateRequest(prepared, policy=UpdatePolicy(lint="eventually"))


# ---------------------------------------------------------------------------
# One analysis per update attempt: lint, bypass and the rescue plans read
# the same report, so ``submit`` builds at most one call graph


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts ``build_call_graph`` calls, wherever a module bound it."""
    import sys

    original = build_call_graph
    calls = []

    def counting(classfiles):
        calls.append(1)
        return original(classfiles)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.")
                and getattr(module, "build_call_graph", None) is original):
            monkeypatch.setattr(module, "build_call_graph", counting)
    return calls


GREETER_V1 = """
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


def submit_once(v1, v2, policy):
    from tests.dsu_helpers import UpdateFixture

    fixture = UpdateFixture(v1).start()
    prepared = fixture.prepare(v2)
    return fixture, fixture.engine.submit(UpdateRequest(prepared, policy))


class TestOneAnalysisPerSubmit:
    @pytest.mark.parametrize("policy, builds", [
        (UpdatePolicy(), 0),
        (UpdatePolicy.paper(), 0),
        (UpdatePolicy.paper(inloop_osr="auto"), 1),
        (UpdatePolicy.fast(), 1),
        (UpdatePolicy.safe(), 1),
    ], ids=["default", "paper", "paper-inloop-osr", "fast", "safe"])
    def test_call_graphs_per_submit_on_a_safe_point_update(
        self, graph_builds, policy, builds
    ):
        # A new field and a changed body: never bypass-eligible, and the
        # con-freeness rules have a changed method to walk the graph for.
        from tests.test_gc_extras import UPDATE_V1, UPDATE_V2

        v2 = UPDATE_V2.replace("rounds + 1", "rounds + 2")
        _, result = submit_once(UPDATE_V1, v2, policy)
        assert graph_builds == [1] * builds
        if policy.bypass != "off":
            assert result.bc_verdict == "requires-safepoint"

    def test_a_bypassed_update_builds_one_graph_and_reports_no_plans(
        self, graph_builds
    ):
        _, result = submit_once(
            GREETER_V1, GREETER_V1.replace('"v1"', '"v2"'),
            UpdatePolicy.fast(),
        )
        assert result.bypassed
        assert graph_builds == [1]
        assert result.bc_verdict == "bypass-eligible"
        assert result.osr_plans_verified == 0
        assert result.osr_plans_refused == []
        assert result.lint_warnings == 0

    def test_fields_follow_the_policy_not_the_shared_report(self):
        # In-loop OSR alone: the plans are reported, while the lint counts
        # and the bypass verdict stay unset though the report has them.
        fixture, result = submit_once(
            SPIN_V1, SPIN_V1.replace("n + 1", "n + 2"),
            UpdatePolicy(retry=RetryPolicy(timeout_ms=200.0),
                         inloop_osr="auto"),
        )
        assert result.osr_plans_verified == 1
        assert result.osr_plans_refused == []
        assert (result.lint_errors, result.lint_warnings) == (0, 0)
        assert result.lint_predicted_abort == ""
        assert result.bc_verdict == ""
        spans = {span.name: span for span in fixture.vm.tracer.walk()}
        assert "dsu.preflight.confree" not in spans
        assert "dsu.preflight.osrmap" not in spans
        lint = spans["dsu.preflight.lint"]
        assert lint.args == {"mode": "off", "bypass": "off", "targets": 1,
                             "plans": 1, "refused": 0}


# ---------------------------------------------------------------------------
# Acceptance: the predicted closure over-approximates the runtime sets on
# every bundled update, whatever the JIT happened to opt-compile.


def _all_pairs():
    from repro.apps.registry import APPS, update_pairs

    return [
        (app, a, b) for app in APPS for a, b in update_pairs(app)
    ]


class TestPredictionSupersetsRuntime:
    @pytest.mark.parametrize(
        "app,from_version,to_version",
        _all_pairs(),
        ids=[f"{a}-{f}-{t}" for a, f, t in _all_pairs()],
    )
    def test_predicted_restricted_superset(self, app, from_version, to_version):
        from repro.dsu.safepoint import (
            observed_restriction_keys,
            resolve_restricted,
        )
        from repro.harness.updates import AppDriver

        driver = AppDriver.for_app(app)
        driver.boot(from_version)
        prepared = driver.prepare_pair(from_version, to_version)
        report = analyze_update(driver.classfiles(from_version), prepared)

        # Adversarial runtime: opt-compile *everything*, so every possible
        # inline host materializes, then compare against the prediction.
        vm = driver.vm
        for entry in list(vm.methods.all_entries()):
            if entry.info.is_native:
                continue
            try:
                vm.jit.compile_opt(entry)
            except Exception:
                continue
        sets = resolve_restricted(vm, prepared.spec)
        observed = observed_restriction_keys(vm, sets)
        missing = observed - report.predicted_restricted
        assert not missing, (
            f"runtime restricts {sorted(missing)} but dsu-lint did not "
            f"predict them"
        )

    def test_bundled_aborts_are_the_predicted_ones(self):
        from repro.apps.registry import (
            APPS,
            EXPECTED_OSR_RESCUED,
            STATIC_PREDICTED_ABORTS,
            update_pairs,
        )
        from repro.harness.updates import AppDriver

        flagged = set()          # paper-fidelity pass (no osrmap rescue)
        flagged_default = set()  # default pass (osrmap pass on)
        rescued = set()          # fully-planned osrmap verdicts
        for app in APPS:
            driver = AppDriver.for_app(app)
            for from_version, to_version in update_pairs(app):
                prepared = driver.prepare_pair(from_version, to_version)
                fidelity = analyze_update(
                    driver.classfiles(from_version), prepared,
                    inloop_osr=False,
                )
                if fidelity.has_errors:
                    flagged.add((app, from_version, to_version))
                report = analyze_update(
                    driver.classfiles(from_version), prepared
                )
                if report.has_errors:
                    flagged_default.add((app, from_version, to_version))
                if report.osr_plans is not None and report.osr_plans.fully_planned:
                    rescued.add((app, from_version, to_version))
        # Without the rescue, errors land on exactly the paper's aborts.
        assert flagged == set(STATIC_PREDICTED_ABORTS)
        # With it, both are fully planned and no update errors at all.
        assert flagged_default == set()
        assert rescued == set(EXPECTED_OSR_RESCUED)
