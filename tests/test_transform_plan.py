"""Default object transformers run as a precomputed field-copy plan
(``dsu.engine.field_copy_plan``): the plan must leave every simulated
number exactly where interpreting the body leaves it, and any body that
is not a pure field copy must stay interpreted."""

import pytest

from repro.apps.registry import APPS, update_pairs
from repro.dsu import engine as engine_module
from repro.dsu.engine import UpdateRequest
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.harness.lazyheap import heap_fingerprint
from repro.harness.microbench import boot_micro, heap_cells_for
from repro.harness.updates import AppDriver, harness_policy, run_update
from tests.dsu_helpers import UpdateFixture

MODES = ("eager", "lazy")

#: every bundled update whose spec changes a class layout (and so runs
#: class and object transformers)
CLASS_UPDATE_PAIRS = [
    (app, from_version, to_version)
    for app in APPS
    for from_version, to_version in update_pairs(app)
    if AppDriver.for_app(app).prepare_pair(from_version, to_version)
    .spec.class_updates
]


def counter(vm, name):
    found = vm.metrics.counters.get(name)
    return found.value if found is not None else 0


def observed(vm, result):
    """Everything the plan must leave exactly as interpretation does."""
    return {
        "fingerprint": heap_fingerprint(vm),
        "cycles": vm.clock.cycles,
        # A run ends at a fixed simulated time, so its total cycles hide
        # the work an idle-slice sweep did; the busy share does not.
        "busy_cycles": vm.clock.cycles - vm.clock.idle_cycles,
        "instructions": vm.interpreter.instructions_executed,
        "invocations": counter(vm, "dsu.transformer_invocations"),
        "pause_ms": result.total_pause_ms,
    }


def refuse_plans(monkeypatch):
    monkeypatch.setattr(engine_module, "field_copy_plan", lambda code: None)


def run_app_update(app, from_version, to_version, mode):
    driver, holder, _ = run_update(
        app, from_version, to_version,
        harness_policy(1_000.0, transform=mode),
        request_at_ms=100.0, until_ms=1_200.0,
    )
    result = holder["result"]
    assert result.succeeded, result.reason
    assert driver.engine.lazy_epoch is None
    return driver.vm, result


def fill_fields(vm):
    """Give every microbenchmark object distinct field values and
    references to same-class peers, so a copy the plan drops or misplaces
    shows in the heap fingerprint (a fresh population is all zeros)."""
    objects = vm.objects
    items = vm.jtoc.read(vm.registry.get("Holder").static_slots["items"])
    peers = {}
    for index in range(objects.array_length(items)):
        address = objects.array_get(items, index)
        peers.setdefault(objects.class_of(address).name, []).append(address)
    for group in peers.values():
        for index, address in enumerate(group):
            layout = objects.class_of(address).field_layout
            for step, slot in enumerate(layout, start=1):
                value = (group[(index + step) % len(group)] if slot.is_ref
                         else 10 * index + step)
                objects.write_cell(address, slot.cell_offset, value)


def run_micro_update(mode):
    driver = boot_micro(200, 0.5, heap_cells_for(256))
    fill_fields(driver.vm)
    policy = UpdatePolicy(retry=RetryPolicy(timeout_ms=1_000.0),
                          transform=mode)
    result = driver.engine.submit(
        UpdateRequest(driver.prepare("micro2"), policy=policy)
    )
    driver.run(max_instructions=1_000_000)
    assert result.succeeded, result.reason
    driver.engine.drain_lazy_epoch()
    assert driver.engine.lazy_epoch is None
    return driver.vm, result


def test_plan_matches_interpretation():
    """Every bundled class update and the Table-1 micro pair, eager and
    drained lazy: applied with plans, then with every plan refused."""
    planned = {}
    for app, from_version, to_version in CLASS_UPDATE_PAIRS:
        for mode in MODES:
            vm, result = run_app_update(app, from_version, to_version, mode)
            planned[app, from_version, to_version, mode] = observed(vm, result)
            if (app, from_version, to_version, mode) == (
                    "jetty", "5.1.2", "5.1.3", "eager"):
                assert counter(vm, "dsu.transformer_plan_copies") > 0
            if (app, from_version, to_version, mode) == (
                    "crossftp", "1.06", "1.07", "eager"):
                # The config override is not a pure copy; it still lands.
                config = vm.registry.get("FtpConfig")
                assert vm.jtoc.read(config.static_slots["maxConnections"]) == 64
                assert vm.jtoc.read(config.static_slots["timeoutSeconds"]) == 300
    assert ("jetty", "5.1.2", "5.1.3", "eager") in planned
    assert ("crossftp", "1.06", "1.07", "eager") in planned
    for mode in MODES:
        vm, result = run_micro_update(mode)
        # Every Change object went through the plan, none through a thread.
        assert counter(vm, "dsu.transformer_plan_copies") == 100, mode
        planned["micro", mode] = observed(vm, result)

    with pytest.MonkeyPatch.context() as monkeypatch:
        refuse_plans(monkeypatch)
        for app, from_version, to_version in CLASS_UPDATE_PAIRS:
            for mode in MODES:
                case = (app, from_version, to_version, mode)
                interpreted = observed(*run_app_update(*case))
                assert interpreted == planned[case], case
        for mode in MODES:
            vm, result = run_micro_update(mode)
            assert counter(vm, "dsu.transformer_plan_copies") == 0, mode
            assert observed(vm, result) == planned["micro", mode], mode


# ---------------------------------------------------------------------------
# near-copy bodies stay interpreted

_MAIN = """
class Main {
    static int rounds;
    static void main() {
        Boot.setup();
        while (rounds < 20) {
            Sys.sleep(10);
            rounds = rounds + 1;
            Sys.print(Report.render());
        }
    }
}
class Root { static A a; static int marker; }
class P { int v; }
class Boot {
    static void setup() {
        A a = new A();
        a.x = 3;
        a.y = 4;
        a.p = new P();
        a.p.v = 9;
        Root.a = a;
    }
}
class Report {
    static string render() {
        return Root.a.x + "/" + Root.a.y + "/" + Root.a.p.v + "/"
            + Root.marker;
    }
}
"""

SHAPE_V1 = _MAIN + "class A { int x; int y; P p; }\n"
# v2's render tags its lines, so the last line is the updated program's
SHAPE_V2 = (_MAIN + "class A { int x; int y; P p; int z; }\n").replace(
    'return Root.a.x', 'return "v2 " + Root.a.x')

_COPY_X_AND_P = """
        to.x = from.x;
        to.p = from.p;"""

#: (jvolveObject body, console line after the update)
NEAR_COPIES = {
    "swapped-direction": (_COPY_X_AND_P + "\n        from.y = to.y;",
                          "3/0/9/0"),
    "constant-store": (_COPY_X_AND_P + "\n        to.y = 7;", "3/7/9/0"),
    "read-from-to": (_COPY_X_AND_P + "\n        to.y = to.x;", "3/3/9/0"),
    "helper-call": ("\n        JvolveTransformers.copy(to, from);",
                    "3/4/9/0"),
    "force-transform": (_COPY_X_AND_P + "\n        to.y = from.y;"
                        "\n        Sys.forceTransform(from.p);", "3/4/9/0"),
    "copy-then-putstatic": (_COPY_X_AND_P + "\n        to.y = from.y;"
                            "\n        Root.marker = 1;", "3/4/9/1"),
}

HELPERS = """
    static void copy(A to, v10_A from) {
        to.x = from.x;
        to.y = from.y;
        to.p = from.p;
    }
"""


def override(body):
    return {"A": f"""
    static void jvolveClass(A unused) {{ }}
    static void jvolveObject(A to, v10_A from) {{{body}
    }}
"""}


def apply_shape_update(mode, overrides=None):
    fixture = UpdateFixture(SHAPE_V1).start()
    holder = fixture.update_at(
        55, SHAPE_V2, overrides=overrides, helpers=HELPERS,
        policy=UpdatePolicy(retry=RetryPolicy(timeout_ms=1_000.0),
                            transform=mode),
    )
    fixture.run(until_ms=400)
    result = holder["result"]
    assert result.succeeded, result.reason
    return fixture.vm


def test_default_body_is_planned():
    for mode in MODES:
        vm = apply_shape_update(mode)
        assert counter(vm, "dsu.transformer_plan_copies") == 1, mode
        assert counter(vm, "dsu.transformer_invocations") == 2, mode
        assert vm.console[-1] == "v2 3/4/9/0", mode


def test_near_copies_stay_interpreted(monkeypatch):
    build = engine_module.field_copy_plan
    plans = []

    def spy(code):
        plans.append(build(code))
        return plans[-1]

    monkeypatch.setattr(engine_module, "field_copy_plan", spy)
    for name in sorted(NEAR_COPIES):
        body, expected = NEAR_COPIES[name]
        for mode in MODES:
            plans.clear()
            vm = apply_shape_update(mode, override(body))
            assert plans == [None], (name, mode)
            assert counter(vm, "dsu.transformer_plan_copies") == 0, (name, mode)
            assert vm.console[-1] == "v2 " + expected, (name, mode)
