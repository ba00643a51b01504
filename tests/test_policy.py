"""The UpdatePolicy API: presets, validation, engine wiring, and the
three-field UpdateRequest that carries it (the pre-PR-9 mode kwargs and
``UpdateEngine(heap_grow=)`` are gone, not deprecated).
"""

import dataclasses

import pytest

from repro.dsu.engine import UpdateEngine, UpdateRequest
from repro.dsu.policy import Policy, UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from tests.dsu_helpers import UpdateFixture
from tests.test_gc_extras import UPDATE_V1, UPDATE_V2


class TestPolicyObject:
    def test_defaults_are_paper_shaped(self):
        policy = UpdatePolicy()
        assert policy.retry == RetryPolicy()
        assert policy.lint == "off"
        assert policy.bypass == "off"
        assert policy.inloop_osr == "off"
        assert policy.transform == "eager"
        assert policy.heap_grow is False

    def test_paper_preset_is_the_default_policy(self):
        assert UpdatePolicy.paper() == UpdatePolicy()

    def test_fast_preset(self):
        policy = UpdatePolicy.fast()
        assert policy.bypass == "auto"
        assert policy.inloop_osr == "auto"
        assert policy.transform == "lazy"
        assert policy.lint == "off"

    def test_safe_preset(self):
        policy = UpdatePolicy.safe()
        assert policy.lint == "strict"
        assert policy.inloop_osr == "auto"
        assert policy.transform == "eager"
        assert policy.bypass == "off"

    def test_presets_take_overrides(self):
        policy = UpdatePolicy.fast(transform="eager", lint="warn")
        assert policy.transform == "eager"
        assert policy.lint == "warn"
        assert policy.bypass == "auto"  # the preset's value survives
        retry = RetryPolicy(timeout_ms=99.0, retries=3)
        assert UpdatePolicy.safe(retry=retry).retry is retry

    def test_policy_alias(self):
        assert Policy is UpdatePolicy
        assert Policy.fast() == UpdatePolicy.fast()

    def test_frozen(self):
        policy = UpdatePolicy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.lint = "warn"

    @pytest.mark.parametrize("kwargs,needle", [
        (dict(lint="eventually"), "lint"),
        (dict(bypass="yes"), "bypass"),
        (dict(inloop_osr="maybe"), "inloop_osr"),
        # the engine implements only off|auto; "require" was accepted and
        # then behaved exactly like "off"
        (dict(inloop_osr="require"), "inloop_osr"),
        (dict(transform="deferred"), "transform"),
        # growth is the eager collection's pre-flight; lazy ignored it
        (dict(transform="lazy", heap_grow=True), "heap_grow"),
    ])
    def test_mode_validation(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            UpdatePolicy(**kwargs)
        # ...and through preset overrides too.
        with pytest.raises(ValueError, match=needle):
            UpdatePolicy.fast(**kwargs)


class TestRequestShape:
    def test_plain_request_carries_the_default_policy(self):
        prepared = UpdateFixture(UPDATE_V1).prepare(UPDATE_V2)
        assert UpdateRequest(prepared).policy == UpdatePolicy()

    def test_request_has_exactly_three_fields(self):
        names = [f.name for f in dataclasses.fields(UpdateRequest)]
        assert names == ["prepared", "policy", "tracer"]

    @pytest.mark.parametrize("kwargs", [
        dict(lint="warn"),
        dict(bypass="auto"),
        dict(inloop_osr="auto"),
        dict(transform="lazy"),
    ])
    def test_the_old_mode_kwargs_are_gone(self, kwargs):
        prepared = UpdateFixture(UPDATE_V1).prepare(UPDATE_V2)
        with pytest.raises(TypeError):
            UpdateRequest(prepared, **kwargs)

    def test_engine_takes_no_heap_grow(self):
        fixture = UpdateFixture(UPDATE_V1)
        with pytest.raises(TypeError):
            UpdateEngine(fixture.vm, heap_grow=True)

    def test_engine_takes_no_auto_read_barrier(self):
        fixture = UpdateFixture(UPDATE_V1)
        with pytest.raises(TypeError):
            UpdateEngine(fixture.vm, auto_read_barrier=True)


class TestPolicyDrivesTheEngine:
    def test_policy_heap_grow_grows_an_undersized_heap(self):
        fixture = UpdateFixture(UPDATE_V1, heap_cells=900).start()
        holder = fixture.update_at(
            55, UPDATE_V2, policy=UpdatePolicy(heap_grow=True)
        )
        fixture.run(until_ms=2_000)
        assert holder["result"].succeeded, holder["result"].reason
        assert fixture.vm.heap.size > 900

    def test_without_heap_grow_the_same_update_aborts(self):
        fixture = UpdateFixture(UPDATE_V1, heap_cells=900).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        result = holder["result"]
        assert not result.succeeded
        assert result.reason_code == "heap-preflight"

    def test_policy_transform_mode_lands_in_the_result(self):
        fixture = UpdateFixture(UPDATE_V1).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        assert holder["result"].transform_mode == "eager"
