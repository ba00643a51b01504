"""Advanced DSU scenarios: recursive forced transformation and cycle
detection (paper §3.4), update chains, inlined-restricted methods, and
post-update heap health."""

import pytest

from repro.dsu.engine import UpdateRequest
from tests.dsu_helpers import UpdateFixture

# ---------------------------------------------------------------------------
# recursive transformation via Sys.forceTransform (paper §3.4)

# main() is version-identical (it is always on the stack); the
# version-specific setup and rendering live in Boot/Report.
_FORCE_MAIN = """
class Main {
    static int rounds;
    static void main() {
        Boot.setup();
        while (rounds < 30) {
            Sys.sleep(10);
            rounds = rounds + 1;
            Sys.print(Report.render());
        }
    }
}
class Root {
    static A a;
}
"""

FORCE_V1 = _FORCE_MAIN + """
class A { int x; B partner; }
class B { int y; }
class Boot {
    static void setup() {
        A a = new A();
        B b = new B();
        a.x = 5;
        b.y = 7;
        a.partner = b;
        Root.a = a;
    }
}
class Report {
    static string render() { return Root.a.x + "/" + Root.a.partner.y; }
}
"""

FORCE_V2 = _FORCE_MAIN + """
class A { int x; int sum; B partner; }
class B { int y; int yDoubled; }
class Boot {
    static void setup() {
        A a = new A();
        B b = new B();
        a.x = 5;
        b.y = 7;
        b.yDoubled = 14;
        a.partner = b;
        a.sum = a.x + b.yDoubled;
        Root.a = a;
    }
}
class Report {
    static string render() {
        return Root.a.x + "/" + Root.a.partner.y + "/" + Root.a.sum + "/"
            + Root.a.partner.yDoubled;
    }
}
"""

# A's transformer needs B's *transformed* state (yDoubled), so it forces
# B's transformation first — the paper's special VM function.
FORCE_TRANSFORMERS = {
    "A": """
    static void jvolveClass(A unused) { }
    static void jvolveObject(A to, v10_A from) {
        to.x = from.x;
        to.partner = from.partner;
        Sys.forceTransform(to.partner);
        to.sum = to.x + to.partner.yDoubled;
    }
""",
    "B": """
    static void jvolveClass(B unused) { }
    static void jvolveObject(B to, v10_B from) {
        to.y = from.y;
        to.yDoubled = from.y * 2;
    }
""",
}


class TestForcedTransformation:
    def test_transformer_reads_dependent_transformed_state(self):
        fixture = UpdateFixture(FORCE_V1, heap_cells=1 << 16).start()
        holder = fixture.update_at(55, FORCE_V2, overrides=FORCE_TRANSFORMERS)
        fixture.run(until_ms=3_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        # x=5, y=7 preserved; yDoubled computed by B's transformer; sum
        # computed by A's transformer from B's *transformed* state.
        assert "5/7/19/14" in fixture.console

    def test_force_transform_is_idempotent(self):
        # Forcing an already-transformed object is a no-op; order of the
        # update log must not matter.
        fixture = UpdateFixture(FORCE_V1, heap_cells=1 << 16).start()
        overrides = dict(FORCE_TRANSFORMERS)
        overrides["A"] = """
    static void jvolveClass(A unused) { }
    static void jvolveObject(A to, v10_A from) {
        to.x = from.x;
        to.partner = from.partner;
        Sys.forceTransform(to.partner);
        Sys.forceTransform(to.partner);
        to.sum = to.x + to.partner.yDoubled;
    }
"""
        holder = fixture.update_at(55, FORCE_V2, overrides=overrides)
        fixture.run(until_ms=3_000)
        assert holder["result"].succeeded, holder["result"].reason

    def test_class_transformer_can_force_an_object(self):
        # Class transformers run after the update collection, so the new
        # objects already cache their old copies: forcing one from
        # jvolveClass transforms it (and, through A's transformer, B).
        fixture = UpdateFixture(FORCE_V1, heap_cells=1 << 16).start()
        overrides = dict(FORCE_TRANSFORMERS)
        overrides["A"] = FORCE_TRANSFORMERS["A"].replace(
            "static void jvolveClass(A unused) { }",
            """static void jvolveClass(A unused) {
        Sys.forceTransform(Root.a);
        Sys.print("class-time " + Root.a.x + "/" + Root.a.sum);
    }""",
        )
        holder = fixture.update_at(55, FORCE_V2, overrides=overrides)
        fixture.run(until_ms=3_000)
        assert holder["result"].succeeded, holder["result"].reason
        assert "class-time 5/19" in fixture.console
        assert "5/7/19/14" in fixture.console


_CYCLE_MAIN = """
class Main {
    static int rounds;
    static void main() {
        CycleBoot.setup();
        while (rounds < 40) { Sys.sleep(10); rounds = rounds + 1; }
    }
}
class Root { static A a; }
"""

CYCLE_V1 = _CYCLE_MAIN + """
class A { int x; A peer; }
class CycleBoot {
    static void setup() {
        A one = new A();
        A two = new A();
        one.peer = two;
        two.peer = one;
        one.x = 1;
        two.x = 2;
        Root.a = one;
    }
}
"""

CYCLE_V2 = CYCLE_V1.replace("class A { int x; A peer; }",
                            "class A { int x; int doubled; A peer; }")

# Ill-defined transformers: each A needs its peer transformed first.
CYCLE_TRANSFORMERS = {
    "A": """
    static void jvolveClass(A unused) { }
    static void jvolveObject(A to, v10_A from) {
        to.x = from.x;
        to.peer = from.peer;
        Sys.forceTransform(to.peer);
        to.doubled = to.peer.doubled + 1;
    }
""",
}


class TestCycleDetection:
    def test_transformer_cycle_aborts_update(self):
        fixture = UpdateFixture(CYCLE_V1, heap_cells=1 << 16).start()
        holder = fixture.update_at(55, CYCLE_V2, overrides=CYCLE_TRANSFORMERS)
        fixture.run(until_ms=3_000)
        result = holder["result"]
        assert result.status == "aborted"
        assert "cycle" in result.reason
        assert result.failed_phase == "transform"
        assert result.reason_code == "transformer-cycle"
        assert result.rolled_back
        # The half-transformed heap was rolled back: the VM resumes the
        # old version instead of halting.
        assert fixture.vm.halted is False
        vm = fixture.vm
        root = vm.registry.get("Root")
        one = vm.jtoc.read(root.static_slots["a"])
        # Old layout (x, peer — no `doubled` field) and old values survive.
        assert [s.name for s in vm.objects.class_of(one).field_layout] == \
            ["x", "peer"]
        assert vm.objects.read_field(one, "x") == 1
        two = vm.objects.read_field(one, "peer")
        assert vm.objects.read_field(two, "x") == 2
        assert vm.objects.read_field(two, "peer") == one
        # The program keeps running to completion on the old version.
        fixture.run(until_ms=10_000)
        main = vm.registry.get("Main")
        assert vm.jtoc.read(main.static_slots["rounds"]) == 40


# ---------------------------------------------------------------------------
# update chains: several updates applied to one VM in sequence

CHAIN_V1 = """
class Counter {
    static int value;
    static string show() { return "v1:" + value; }
}
class Main {
    static int rounds;
    static void main() {
        while (rounds < 100) {
            Sys.sleep(10);
            Counter.value = Counter.value + 1;
            rounds = rounds + 1;
            Sys.print(Counter.show());
        }
    }
}
"""
CHAIN_V2 = CHAIN_V1.replace('return "v1:" + value;', 'return "v2:" + value;')
CHAIN_V3 = CHAIN_V2.replace(
    "class Counter {\n    static int value;",
    "class Counter {\n    static int value;\n    static int epoch;",
).replace('return "v2:" + value;', 'return "v3." + epoch + ":" + value;')


class TestUpdateChains:
    def test_three_versions_in_sequence(self):
        fixture = UpdateFixture(CHAIN_V1).start()
        first = fixture.update_at(105, CHAIN_V2, v2="2.0")
        fixture.run(until_ms=300)
        assert first["result"].succeeded, first["result"].reason

        second = fixture.update_at(405, CHAIN_V3, v2="3.0")
        fixture.run(until_ms=1_500)
        assert second["result"].succeeded, second["result"].reason

        console = fixture.console
        assert any(line.startswith("v1:") for line in console)
        assert any(line.startswith("v2:") for line in console)
        assert any(line.startswith("v3.0:") for line in console)
        # The static survived both updates: the counter never reset.
        values = [int(line.split(":")[1]) for line in console]
        assert values == sorted(values)
        assert values[-1] == 100

    def test_renamed_classes_accumulate(self):
        fixture = UpdateFixture(CHAIN_V1).start()
        first = fixture.update_at(105, CHAIN_V2, v2="2.0")
        fixture.run(until_ms=300)
        assert first["result"].succeeded
        second = fixture.update_at(405, CHAIN_V3, v2="3.0")
        fixture.run(until_ms=1_500)
        assert second["result"].succeeded
        # v2 -> v3 was a class update, so the v2 Counter was retired.
        assert fixture.vm.registry.maybe_get("v20_Counter") is not None
        assert not fixture.vm.registry.get("Counter").obsolete


# ---------------------------------------------------------------------------
# inlining interacts with restriction (paper §3.2)

INLINE_V1 = """
class Hot {
    static int step(int x) { return x + 1; }
}
class Driver {
    static int total;
    static void spinOnce() {
        int acc = 0;
        for (int i = 0; i < 40; i = i + 1) { acc = Hot.step(acc); }
        total = total + acc;
    }
}
class Main {
    static int rounds;
    static void main() {
        while (rounds < 200) {
            Driver.spinOnce();
            Sys.sleep(5);
            rounds = rounds + 1;
        }
    }
}
"""
INLINE_V2 = INLINE_V1.replace("return x + 1;", "return x + 2;")


class TestInlinedRestriction:
    def test_update_to_inlined_method_takes_effect(self):
        fixture = UpdateFixture(INLINE_V1).start()
        # Warm up long enough for spinOnce to reach the opt tier and
        # inline Hot.step.
        fixture.run(until_ms=400)
        spin = fixture.vm.methods.lookup("Driver", "spinOnce", "()V")
        assert spin.opt_code is not None
        assert ("Hot", "step", "(I)I") in spin.opt_code.inlined

        holder = fixture.update_at(
            fixture.vm.clock.now_ms + 5, INLINE_V2, v2="2.0"
        )
        fixture.run(until_ms=3_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        # The host's stale opt code (with the old body inlined) was dropped.
        total_slot = fixture.vm.registry.get("Driver").static_slots["total"]
        total = fixture.vm.jtoc.read(total_slot)
        # 200 rounds: early rounds add 40 (step +1), later rounds add 80.
        assert total > 200 * 40
        assert total < 200 * 80


# ---------------------------------------------------------------------------
# post-update heap health

HEALTH_V1 = """
class Node {
    int value;
    Node next;
    Node(int v, Node n) { this.value = v; this.next = n; }
}
class Root { static Node head; }
class Main {
    static int rounds;
    static void main() {
        Node head = null;
        for (int i = 1; i <= 20; i = i + 1) { head = new Node(i, head); }
        Root.head = head;
        while (rounds < 60) {
            Sys.sleep(10);
            rounds = rounds + 1;
            // churn to force post-update collections
            for (int i = 0; i < 40; i = i + 1) { Node junk = new Node(i, null); }
            Sys.print("" + Sum.all());
        }
    }
}
class Sum {
    static int all() {
        int total = 0;
        Node n = Root.head;
        while (n != null) { total = total + n.value; n = n.next; }
        return total;
    }
}
"""
HEALTH_V2 = HEALTH_V1.replace(
    "class Node {\n    int value;\n    Node next;",
    "class Node {\n    int value;\n    int visits;\n    Node next;",
)


class TestPostUpdateHeapHealth:
    def test_collections_after_update_preserve_transformed_graph(self):
        fixture = UpdateFixture(HEALTH_V1, heap_cells=9000).start()
        holder = fixture.update_at(105, HEALTH_V2)
        fixture.run(until_ms=3_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert result.objects_transformed >= 20
        # Several ordinary collections ran after the update (small heap +
        # churn); the 20-node transformed list kept summing to 210.
        assert fixture.vm.collector.collections >= 2
        assert set(fixture.console) == {"210"}
        # Status header cells of transformed objects were cleared, so later
        # collections never misread them as forwarding pointers.
        node_class = fixture.vm.registry.get("Node")
        address = fixture.vm.jtoc.read(
            fixture.vm.registry.get("Root").static_slots["head"]
        )
        assert fixture.vm.objects.status(address) == 0


class TestEngineGuards:
    def test_concurrent_update_requests_rejected(self):
        fixture = UpdateFixture(CHAIN_V1).start()
        prepared = fixture.prepare(CHAIN_V2, v2="2.0")
        fixture.engine.submit(UpdateRequest(prepared))
        with pytest.raises(RuntimeError, match="already in progress"):
            fixture.engine.submit(UpdateRequest(prepared))

    def test_stale_timeout_does_not_kill_next_update(self):
        # First update applies quickly; its timeout event fires later and
        # must not abort the *second* in-flight update.
        fixture = UpdateFixture(CHAIN_V1).start()
        first = fixture.update_at(105, CHAIN_V2, v2="2.0", timeout_ms=250)
        fixture.run(until_ms=300)
        assert first["result"].succeeded
        second = fixture.update_at(320, CHAIN_V3, v2="3.0", timeout_ms=5_000)
        # Run past the first update's timeout instant (105 + 250 = 355).
        fixture.run(until_ms=1_500)
        assert second["result"].succeeded, second["result"].reason
