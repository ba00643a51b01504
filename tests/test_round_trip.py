"""Round-trip property: v1 -> v2 -> v1 keeps the state v2 carried.

A regressed fleet canary is undone by updating it back, so every bundled
update that applies is followed here by its reverse on the same VM. The
server first serves ``light_load`` (an idle server holds nothing to
lose), then both updates land back to back with no v2 code running in
between. Afterwards the statics-reachable heap and every non-reference
static of the current program must equal their pre-update values.

The only fields allowed to differ are those v2 removes or retypes *and*
the forward transformers never read: the default transformers drop
them, so no reverse update could bring them back. A field the forward
transformers do read (a custom override moving a counter into another
class, or rebuilding an array) is state the update promised to carry, so
the reverse override must carry it back.
"""

import pytest

from repro.apps.registry import APPS, EXPECTED_OUTCOMES, update_pairs
from repro.dsu.engine import PENDING, UpdateRequest
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.dsu.upt import version_prefix
from repro.harness.lazyheap import heap_fingerprint
from repro.harness.updates import AppDriver, light_load

#: safe-point window of each update (sim-ms)
HORIZON_MS = 2_000.0

#: the paper's two aborts never reach v2, so they have no reverse
PAPER_ABORTS = {
    (o.app, o.from_version, o.to_version)
    for o in EXPECTED_OUTCOMES if o.paper_outcome == "aborted"
}
PAIRS = [
    (app, a, b)
    for app in APPS for a, b in update_pairs(app)
    if (app, a, b) not in PAPER_ABORTS
]


def _current_classes(vm):
    """Classes of the running program: renamed old versions are obsolete."""
    return {
        name for name in vm.registry.loaded_names()
        if not vm.registry.get(name).obsolete
    }


def _state(vm, exempt):
    """Non-reference statics and the masked heap fingerprint."""
    current = _current_classes(vm)
    statics = {}
    for name in sorted(current):
        rvmclass = vm.registry.get(name)
        for field_name, slot in rvmclass.static_slots.items():
            if (not rvmclass.static_is_ref.get(field_name)
                    and (name, field_name) not in exempt):
                statics[(name, field_name)] = vm.jtoc.read(slot)
    heap = []
    for row in heap_fingerprint(vm):
        if row[0] == "static":
            if row[1] in current and (row[1], row[2]) not in exempt:
                heap.append(row)
        elif row[0] == "object":
            layout = vm.registry.get(row[1]).field_layout
            heap.append((row[0], row[1], tuple(
                value for slot, value in zip(layout, row[2])
                if (row[1], slot.name) not in exempt
            )))
        else:
            heap.append(row)
    return statics, heap


def _dropped_fields(old, new, prepared):
    """(class, field) pairs of ``old`` that ``new`` removes or retypes and
    the forward transformers never read from the old-version stubs."""
    prefix = version_prefix(prepared.old_version)
    read = {
        (instr.a[len(prefix):], instr.b)
        for classfile in prepared.transformer_classfiles.values()
        for method in classfile.methods.values()
        for instr in method.instructions
        if instr.op in ("GETFIELD", "GETSTATIC") and instr.a.startswith(prefix)
    }
    dropped = set()
    for name, classfile in old.items():
        kept = new.get(name)
        kept_fields = (
            {(f.name, f.descriptor) for f in kept.fields} if kept else set()
        )
        for field_info in classfile.fields:
            key = (name, field_info.name)
            if ((field_info.name, field_info.descriptor) not in kept_fields
                    and key not in read):
                dropped.add(key)
    return dropped


def _apply_then_revert(driver, forward, reverse):
    """Submit ``forward``; the moment it applies, submit ``reverse`` from
    the same world stop, so no v2 code runs in between. Returns both
    results once the reverse is terminal (or the horizon passed)."""
    vm, engine = driver.vm, driver.engine
    policy = UpdatePolicy(retry=RetryPolicy(timeout_ms=HORIZON_MS))
    results = [engine.submit(UpdateRequest(forward, policy=policy))]
    engine_hook = vm.on_world_stopped

    def world_stopped():
        engine_hook()
        if len(results) == 1 and results[0].succeeded:
            results.append(engine.submit(UpdateRequest(reverse, policy=policy)))

    vm.on_world_stopped = world_stopped
    deadline = vm.clock.now_ms + 2 * HORIZON_MS + 100.0
    while results[-1].status == PENDING and vm.clock.now_ms < deadline:
        driver.run(until_ms=vm.clock.now_ms + 10.0)
    vm.on_world_stopped = engine_hook
    return results


@pytest.mark.parametrize(
    "app,v1,v2", PAIRS, ids=[f"{app}-{a}-{b}" for app, a, b in PAIRS]
)
def test_reverse_update_restores_the_carried_state(app, v1, v2):
    driver = AppDriver.for_app(app).boot(v1)
    sessions = light_load(driver.vm, app)
    driver.run(until_ms=1_500.0)
    assert all(session.succeeded for session in sessions)
    forward = driver.prepare_pair(v1, v2)
    exempt = _dropped_fields(driver.classfiles(v1), driver.classfiles(v2),
                             forward)
    before = _state(driver.vm, exempt)

    results = _apply_then_revert(driver, forward, driver.prepare_pair(v2, v1))

    assert [r.status for r in results] == ["applied", "applied"]
    assert driver.engine.lazy_epoch is None
    statics, heap = _state(driver.vm, exempt)
    assert statics == before[0]
    assert heap == before[1]
