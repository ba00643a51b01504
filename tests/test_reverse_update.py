"""A rollback is an update: undo an applied update with its reverse.

Three programs in which the application keeps running on v2 before the
rollback, each with a different forward apply path:

* (a) lazy: the window allocates new-layout ``Item``s and stores them
  into a ``Box`` that predates the update;
* (b) eager: a worker loop is first entered during the window, so it
  runs v2's body;
* (c) bypass: the same worker loop, entered under version-tagged
  dispatch.

The reverse update (v2 -> v1) goes through the ordinary safe-point path,
with the in-loop OSR rescue for a worker loop that never leaves the
stack. Afterwards the heap collects, no frame runs replaced code, every
status word is 0, and the worker prints only v1 with its counter carried
through both updates.
"""

import pytest

from repro.dsu.engine import PENDING
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from tests.dsu_helpers import UpdateFixture, nonzero_status_words, stale_frames

BOX_V1 = """
class Item { int a; }
class Box { Item x; }
class Store {
    static Box box;
    static void init() { Store.box = new Box(); Store.box.x = new Item(); }
    static void refill() { Store.box.x = new Item(); }
}
class Worker {
    static int i;
    static string tag() { return "v1"; }
}
class Main {
    static void main() {
        Store.init();
        while (true) {
            Sys.sleep(10);
            Store.refill();
            Worker.i = Worker.i + 1;
            Sys.print("w" + Worker.i + ":" + Worker.tag());
        }
    }
}
"""
BOX_V2 = BOX_V1.replace(
    "class Item { int a; }", "class Item { int a; int b; }"
).replace('return "v1";', 'return "v2";')

#: main enters the loop at 100 sim-ms, after the forward update applied;
#: the loop never returns, so only the in-loop OSR rescue can replace it
LOOP_V1 = """
class Worker {
    static int i;
    static void loop() {
        while (true) {
            Worker.i = Worker.i + 1;
            Sys.print("w" + Worker.i + ":v1");
            Sys.sleep(10);
        }
    }
}
class Main {
    static void main() {
        Sys.sleep(100);
        Worker.loop();
    }
}
"""
LOOP_V2 = LOOP_V1.replace(':v1"', ':v2"')

RETRY = RetryPolicy(timeout_ms=5_000.0)
#: the reverse: a short safe-point window, then the in-loop OSR rescue
REVERSE = UpdatePolicy(retry=RetryPolicy(timeout_ms=50.0), inloop_osr="auto")

SCENARIOS = {
    "lazy-item-into-box": (BOX_V1, BOX_V2,
                           UpdatePolicy(retry=RETRY, transform="lazy")),
    "eager-worker-loop": (LOOP_V1, LOOP_V2, UpdatePolicy(retry=RETRY)),
    "bypass-worker-loop": (LOOP_V1, LOOP_V2,
                           UpdatePolicy(retry=RETRY, bypass="require")),
}


def update_back(v1, v2, forward_policy):
    """Apply v1 -> v2 at 55 sim-ms, let v2 run until 170, then update
    back to v1. Returns the fixture, the window's output and the reverse
    result once it is terminal."""
    fixture = UpdateFixture(v1, heap_cells=1 << 15).start()
    forward = fixture.update_at(55, v2, policy=forward_policy)
    fixture.run(until_ms=170)
    assert forward["result"].succeeded, forward["result"].reason
    window = list(fixture.console)
    holder = fixture.update_at(170, v1, "1.0", policy=REVERSE)
    vm = fixture.vm
    while "result" not in holder or holder["result"].status == PENDING:
        fixture.run(until_ms=vm.clock.now_ms + 1)
    return fixture, window, holder["result"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_the_reverse_update_returns_the_running_program_to_v1(scenario):
    fixture, window, reverse = update_back(*SCENARIOS[scenario])
    vm = fixture.vm
    assert any(line.endswith(":v2") for line in window)
    assert reverse.succeeded, reverse.reason
    assert (reverse.old_version, reverse.new_version) == ("2.0", "1.0")
    assert stale_frames(vm) == []
    mark = len(fixture.console)
    vm.collect()
    fixture.run(until_ms=1_000)
    after = fixture.console[mark:]
    assert after and all(line.endswith(":v1") for line in after)
    counts = [int(line[1:].split(":")[0]) for line in fixture.console]
    assert counts == list(range(1, len(counts) + 1))
    assert vm.trap_log == []
    fixture.engine.drain_lazy_epoch()
    assert nonzero_status_words(vm) == []
