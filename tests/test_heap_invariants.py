"""The heap says it once: one shape record per class, and one rule for
status words.

* Every loaded class of every bundled version records its reference cell
  offsets, its fixed cell count (``None`` for arrays) and whether its
  array elements are references — and those agree with the field layout,
  with the size of a live instance and with the field rule.
* Outside an update window or an open lazy epoch no status word in the
  current space is non-zero: not after an applied update in any row of
  ``UPDATE_MODES``, not after an aborted one (the reverse update that
  rolls an applied one back is checked in ``tests/test_reverse_update.py``).
  While the eager transform phase runs, the only non-zero words
  are the old-copy addresses the update collection cached in the new
  objects (§3.4).
"""

import pytest

from repro.apps.registry import APPS
from repro.dsu.engine import ABORTED, APPLIED, MODE_EAGER, UPDATE_MODES
from repro.dsu.faults import FaultInjector, FaultPlan
from repro.harness.updates import AppDriver
from repro.lang.types import parse_descriptor
from repro.vm.heap import HEADER_STATUS
from repro.vm.objectmodel import ARRAY_ELEMS_OFFSET
from repro.vm.rvmclass import RVMClass
from tests.dsu_helpers import UpdateFixture, nonzero_status_words
from tests.test_update_pipeline import SCENARIOS, run_mode

BUNDLED_VERSIONS = [
    (app, version) for app in APPS for version in APPS[app].versions
]


class TestShapeRule:
    @pytest.mark.parametrize("app, version", BUNDLED_VERSIONS)
    def test_every_loaded_class_records_its_shape(self, app, version):
        vm = AppDriver.for_app(app).boot(version).vm
        objects = vm.objects
        for rvmclass in list(vm.registry.by_id):
            if rvmclass.kind == RVMClass.KIND_ARRAY:
                assert rvmclass.fixed_cells is None
                assert rvmclass.ref_offsets == ()
                assert rvmclass.elements_are_refs == parse_descriptor(
                    rvmclass.element_descriptor
                ).is_reference()
                array = objects.alloc_array(rvmclass, 3)
                assert objects.object_size_cells(array) == ARRAY_ELEMS_OFFSET + 3
                continue
            assert not rvmclass.elements_are_refs
            if rvmclass.kind == RVMClass.KIND_STRING:
                assert rvmclass.ref_offsets == ()
                instance = objects.alloc_string(0)
            else:
                assert rvmclass.ref_offsets == tuple(
                    slot.cell_offset
                    for slot in rvmclass.field_layout if slot.is_ref
                )
                instance = objects.alloc_object(rvmclass)
            assert objects.object_size_cells(instance) == rvmclass.fixed_cells


class TestStatusWordsAreZeroOutsideAWindow:
    @pytest.mark.parametrize("mode", sorted(UPDATE_MODES))
    def test_after_an_applied_update(self, mode):
        fixture, result = run_mode(mode)
        assert result.status == APPLIED, result.reason
        fixture.engine.drain_lazy_epoch()
        assert fixture.engine.lazy_epoch is None
        assert nonzero_status_words(fixture.vm) == []

    @pytest.mark.parametrize("plan, phase", [
        (FaultPlan(classload_fail_after=0), "classload"),
        (FaultPlan(gc_oom_after_copies=5), "gc"),
        (FaultPlan(transformer_raise_at=5), "transform"),
    ])
    def test_after_an_eager_abort(self, plan, phase):
        fixture, result = run_mode(MODE_EAGER, plan=plan)
        assert result.status == ABORTED
        assert result.failed_phase == phase and result.rolled_back
        assert nonzero_status_words(fixture.vm) == []


class _TransformPhaseProbe(FaultInjector):
    """Records the heap's status words when the eager log replay reaches
    its first object, before any object transformer has run."""

    def __init__(self, engine):
        super().__init__(FaultPlan())
        self.engine = engine
        self.update_log = None
        self.nonzero = None

    def on_transform_object(self, address):
        if self.update_log is None:
            vm = self.engine.vm
            self.update_log = list(self.engine.active.gc_stats.update_log)
            self.nonzero = {
                at: vm.heap.cells[at + HEADER_STATUS]
                for at in nonzero_status_words(vm)
            }
        super().on_transform_object(address)


class TestTheHeaderCachesTheOldCopy:
    def test_each_new_object_holds_its_old_copy_at_transform_start(self):
        v1, v2, policy = SCENARIOS[MODE_EAGER]
        fixture = UpdateFixture(v1).start()
        probe = fixture.engine.fault_injector = _TransformPhaseProbe(
            fixture.engine
        )
        holder = fixture.update_at(100, v2, policy=policy)
        fixture.run(until_ms=1_500)
        assert holder["result"].status == APPLIED
        assert len(probe.update_log) == 40
        # Exactly the log's new objects carry a status word, and each one
        # is the address of its old copy.
        assert probe.nonzero == {new: old for old, new in probe.update_log}
        assert nonzero_status_words(fixture.vm) == []
