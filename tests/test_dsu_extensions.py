"""Tests for the implemented future-work extensions (paper §3.5):

* **extended OSR** — updating a *changed* method while it runs, given a
  user-supplied pc/locals mapping (UpStare-style);
* **read-through transformers** — under a lazy epoch, a transformer that
  reads another pending object transforms it first, so custom
  transformers need no explicit ``Sys.forceTransform`` calls.
"""

import pytest

from repro.dsu.engine import UpdateRequest
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.dsu.upt import derive_identity_mapping, prepare_update
from repro.compiler.compile import compile_source
from repro.vm.vm import VM

from tests.dsu_helpers import UpdateFixture
from tests.test_dsu_advanced import (
    FORCE_TRANSFORMERS,
    FORCE_V1,
    FORCE_V2,
)

# ---------------------------------------------------------------------------
# extended OSR: the paper's canonical unsupportable update — a changed
# method inside an infinite loop — becomes applicable with a mapping.

SPIN_V1 = """
class Loop {
    static int beats;
    static void spin() {
        while (true) {
            Sys.sleep(5);
            beats = beats + 1;
            if (beats >= 60) { Sys.halt(); }
        }
    }
}
class Main { static void main() { Loop.spin(); } }
"""

# Same control shape, different increment: "a common change is to modify
# the contents of an event handling loop" (§3.5).
SPIN_V2 = SPIN_V1.replace("beats = beats + 1;", "beats = beats + 2;")


def _spin_mapping(fixture, v2_source, v2="2.0"):
    old = fixture.classfiles[fixture.current_version]["Loop"].get_method(
        "spin", "()V"
    )
    new = compile_source(v2_source, version=v2)["Loop"].get_method("spin", "()V")
    return derive_identity_mapping(old, new)


class TestExtendedOSR:
    def test_without_mapping_the_update_aborts(self):
        # Timeout must expire before the loop's natural halt at ~300 ms.
        fixture = UpdateFixture(SPIN_V1).start()
        holder = fixture.update_at(20, SPIN_V2, timeout_ms=150)
        fixture.run(until_ms=3_000)
        assert holder["result"].status == "aborted"

    def test_with_mapping_the_active_method_is_updated(self):
        fixture = UpdateFixture(SPIN_V1).start()
        mapping = _spin_mapping(fixture, SPIN_V2)
        prepared = fixture.prepare(SPIN_V2)
        prepared.active_method_mappings[("Loop", "spin", "()V")] = mapping
        holder = {}
        fixture.vm.events.schedule(
            22,
            lambda: holder.update(
                result=fixture.engine.submit(UpdateRequest(
                    prepared,
                    policy=UpdatePolicy(retry=RetryPolicy(timeout_ms=1_000)),
                ))
            ),
        )
        fixture.run(until_ms=3_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert result.extended_osr_frames == 1
        # The loop kept its state (beats not reset) and switched to the new
        # increment: it halts at exactly 60 with mixed strides.
        vm = fixture.vm
        beats_slot = vm.registry.get("Loop").static_slots["beats"]
        assert vm.jtoc.read(beats_slot) == 60
        assert vm.halted
        # Mixed strides prove both versions ran: pure v1 ends at 60 only
        # after 60 * 5ms = 300ms of sleeping; pure v2 after 30 beats.
        # The update landed at ~22ms (≈4 old beats), so the final simulated
        # time sits strictly between the two pure schedules.
        assert 150 < vm.clock.now_ms < 300

    def test_identity_mapping_shape(self):
        old = compile_source(SPIN_V1, version="1")["Loop"].get_method("spin", "()V")
        new = compile_source(SPIN_V2, version="2")["Loop"].get_method("spin", "()V")
        mapping = derive_identity_mapping(old, new)
        assert len(mapping.pc_map) == len(old.instructions)
        assert all(a == b for a, b in mapping.pc_map.items())

    def test_prefix_mapping_for_different_lengths(self):
        longer = SPIN_V1.replace(
            "beats = beats + 1;", "beats = beats + 1; Loop.beats = beats;"
        )
        old = compile_source(SPIN_V1, version="1")["Loop"].get_method("spin", "()V")
        new = compile_source(longer, version="2")["Loop"].get_method("spin", "()V")
        mapping = derive_identity_mapping(old, new)
        assert len(mapping.pc_map) < len(new.instructions)
        assert mapping.pc_map  # common prefix exists (the sleep call)


# ---------------------------------------------------------------------------
# read-through transformers: the FORCE scenario from test_dsu_advanced, but
# the transformer never calls Sys.forceTransform — under a lazy epoch the
# read barrier transforms the pending partner on first touch.

BARRIER_FREE_TRANSFORMERS = {
    "A": """
    static void jvolveClass(A unused) { }
    static void jvolveObject(A to, v10_A from) {
        to.x = from.x;
        to.partner = from.partner;
        to.sum = to.x + to.partner.yDoubled;
    }
""",
    "B": FORCE_TRANSFORMERS["B"],
}


class TestReadThrough:
    def _run(self, overrides, policy=None):
        fixture = UpdateFixture(FORCE_V1, heap_cells=1 << 16).start()
        holder = fixture.update_at(55, FORCE_V2, overrides=overrides,
                                   policy=policy)
        fixture.run(until_ms=3_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        return fixture

    @pytest.mark.parametrize("overrides", [
        BARRIER_FREE_TRANSFORMERS, FORCE_TRANSFORMERS,
    ], ids=["barrier-free", "explicit-force"])
    def test_lazy_sees_dependent_state(self, overrides):
        fixture = self._run(overrides, UpdatePolicy(transform="lazy"))
        assert "5/7/19/14" in fixture.console

    def test_eager_without_force_sees_defaults(self):
        # Paper-faithful eager replay: without Sys.forceTransform, A's
        # transformer reads B's yDoubled before B was transformed and
        # observes 0 — sum comes out wrong.
        fixture = self._run(BARRIER_FREE_TRANSFORMERS)
        assert "5/7/5/14" in fixture.console  # sum = x + 0
        assert "5/7/19/14" not in fixture.console
