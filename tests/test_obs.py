"""Observability subsystem: tracer, metrics, exporters, and the
`repro.api` facade contract.

Covers the span-tree invariants on hand-built traces, the Chrome
``trace_event`` exporter against a golden file, metrics-registry
consistency after real updates, well-formedness of every bundled
update's trace (aborts and rollbacks included), and the
`UpdateRequest`/`submit()` facade contract (the legacy
``request_update`` shim is gone).
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.dsu.engine import UpdateEngine, UpdateRequest
from repro.dsu.faults import FaultInjector, FaultPlan
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.obs import Metrics, Tracer
from repro.obs.export import chrome_trace, render_span_tree
from tests.dsu_helpers import UpdateFixture
from tests.test_gc_extras import UPDATE_V1, UPDATE_V2

DATA_DIR = Path(__file__).parent / "data"


class FakeClock:
    """Deterministic stand-in for the VM clock in tracer unit tests."""

    def __init__(self):
        self.now_ms = 0.0

    def advance(self, ms):
        self.now_ms += ms


def make_tracer():
    clock = FakeClock()
    return Tracer(clock), clock


# ---------------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_nested_spans_record_durations_and_args(self):
        tracer, clock = make_tracer()
        outer = tracer.begin("outer", "test", tag="a")
        clock.advance(5)
        inner = tracer.begin("inner", "test")
        clock.advance(2)
        tracer.end(inner, items=3)
        clock.advance(1)
        tracer.end(outer)
        assert tracer.validate() == []
        assert len(tracer.roots) == 1
        assert outer.duration_ms == 8
        assert inner.duration_ms == 2
        assert outer.children == [inner]
        assert inner.args == {"items": 3}
        assert outer.args == {"tag": "a"}

    def test_context_manager_and_instant(self):
        tracer, clock = make_tracer()
        with tracer.span("work", "test") as span:
            clock.advance(4)
            tracer.instant("tick", "test", n=1)
        assert span.closed
        assert [c.name for c in span.children] == ["tick"]
        assert span.children[0].instant
        assert tracer.validate() == []

    def test_end_unwinds_dangling_children(self):
        tracer, clock = make_tracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        clock.advance(3)
        # Ending the outer span must implicitly close the inner one and
        # record the anomaly rather than corrupting the stack.
        tracer.end(outer)
        assert inner.closed and outer.closed
        assert tracer.open_spans == []
        assert any("implicitly closed" in a for a in tracer.anomalies)
        assert tracer.validate() != []

    def test_end_without_begin_is_tolerated(self):
        tracer, _ = make_tracer()
        tracer.end()
        assert tracer.anomalies
        span = tracer.begin("late")
        tracer.end(span)
        # A second end() of the same span is also an anomaly, not a crash.
        tracer.end(span)
        assert len(tracer.anomalies) == 2

    def test_validate_flags_unclosed_and_escaping_spans(self):
        tracer, clock = make_tracer()
        tracer.begin("never-closed")
        problems = tracer.validate()
        assert any("never-closed" in p for p in problems)

    def test_disabled_tracer_records_nothing(self):
        clock = FakeClock()
        tracer = Tracer(clock, enabled=False)
        with tracer.span("work"):
            tracer.instant("tick")
        assert tracer.roots == []
        assert tracer.validate() == []

    def test_walk_and_find(self):
        tracer, clock = make_tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                clock.advance(1)
            with tracer.span("c"):
                clock.advance(1)
        root = tracer.roots[0]
        assert [s.name for s in root.walk()] == ["a", "b", "c"]
        assert [s.name for s in root.find("c")] == ["c"]
        assert root.find("missing") == []


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_counters_and_histograms(self):
        metrics = Metrics()
        metrics.inc("updates")
        metrics.inc("updates", 2)
        metrics.observe("pause_ms", 4.0)
        metrics.observe("pause_ms", 6.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"updates": 3}
        summary = snapshot["histograms"]["pause_ms"]
        assert summary["count"] == 2
        assert summary["total"] == 10.0
        assert summary["min"] == 4.0
        assert summary["max"] == 6.0
        assert summary["last"] == 6.0
        assert summary["mean"] == 5.0

    def test_snapshot_is_deterministic_and_detached(self):
        metrics = Metrics()
        metrics.inc("b")
        metrics.inc("a")
        first = metrics.snapshot()
        assert list(first["counters"]) == ["a", "b"]
        metrics.inc("a")
        assert first["counters"]["a"] == 1  # snapshot unaffected

    def test_labelled_series_flatten_to_stable_keys(self):
        metrics = Metrics()
        metrics.inc("fleet.sessions", member="m2")
        metrics.inc("fleet.sessions", member="m2")
        metrics.inc("fleet.sessions", member="m0")
        key = metrics.labelled("fleet.sessions", member="m2")
        assert key == "fleet.sessions{member=m2}"
        assert metrics.counters[key].value == 2
        # Label order never matters: keys render labels sorted by name.
        assert metrics.labelled("x", b="2", a="1") == metrics.labelled(
            "x", a="1", b="2"
        )
        # The unlabelled series is a distinct sibling.
        metrics.inc("fleet.sessions")
        assert metrics.counters["fleet.sessions"].value == 1

    def test_labelled_histograms_are_independent(self):
        metrics = Metrics()
        metrics.observe("latency_ms", 5.0, member="m0")
        metrics.observe("latency_ms", 50.0, member="m1")
        m0 = metrics.histogram("latency_ms", member="m0")
        m1 = metrics.histogram("latency_ms", member="m1")
        assert m0 is not m1
        assert m0.max == 5.0 and m1.min == 50.0

    def test_histogram_percentiles(self):
        metrics = Metrics()
        for value in range(1, 101):
            metrics.observe("d", float(value))
        histogram = metrics.histograms["d"]
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(0.5) == 51.0
        assert histogram.percentile(0.99) == 100.0
        assert histogram.percentile(1.0) == 100.0  # clamped to the max

    def test_percentile_of_single_sample_is_that_sample(self):
        metrics = Metrics()
        metrics.observe("single", 42.0)
        histogram = metrics.histograms["single"]
        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert histogram.percentile(fraction) == 42.0

    def test_percentile_of_empty_series_raises_clearly(self):
        with pytest.raises(ValueError, match="empty"):
            Metrics().histogram("empty").percentile(0.99)

    def test_percentile_past_the_sample_cap_raises_instead_of_biasing(self):
        # Ascending observations: a percentile over the retained prefix
        # would report ~cap/2 as the median of a series whose median is
        # ~(cap + 100)/2 — silently wrong, so it must refuse by name.
        from repro.obs.metrics import _SAMPLE_CAP

        histogram = Metrics().histogram("long_series")
        for value in range(_SAMPLE_CAP):
            histogram.observe(float(value))
        assert histogram.percentile(0.5) == _SAMPLE_CAP // 2  # at the cap: exact
        for value in range(_SAMPLE_CAP, _SAMPLE_CAP + 100):
            histogram.observe(float(value))
        assert histogram.count == _SAMPLE_CAP + 100  # summary stays exact
        assert histogram.max == _SAMPLE_CAP + 99
        with pytest.raises(ValueError, match="long_series"):
            histogram.percentile(0.5)

    def test_nearest_rank_is_the_one_percentile_rule(self):
        from repro.obs.metrics import nearest_rank

        ordered = [float(value) for value in range(1, 101)]
        assert nearest_rank(ordered, 0.25) == 26.0
        assert nearest_rank(ordered, 0.5) == 51.0
        assert nearest_rank(ordered, 1.0) == 100.0  # clamped to the max
        assert nearest_rank([7.0], 0.99) == 7.0


# ---------------------------------------------------------------------------
# Chrome trace exporter (golden file)


def build_reference_tracer():
    """The fixed span tree behind ``tests/data/golden_trace.json``."""
    tracer, clock = make_tracer()
    metrics = Metrics()
    update = tracer.begin("dsu.update", "dsu", old_version="1.0",
                          new_version="2.0")
    clock.advance(1.5)
    with tracer.span("dsu.safepoint.round", "dsu", round=0):
        with tracer.span("dsu.safepoint.scan", "dsu", attempt=1) as scan:
            clock.advance(0.25)
            scan.args["safe"] = True
    with tracer.span("dsu.classload", "dsu", classes=2):
        clock.advance(0.5)
    with tracer.span("dsu.gc", "dsu"):
        with tracer.span("gc.collect", "gc", update=True):
            clock.advance(2.0)
            tracer.instant("gc.update-log", "gc", entries=3)
    tracer.end(update, status="applied")
    metrics.inc("dsu.updates_applied")
    metrics.observe("dsu.pause_ms", 4.25)
    return tracer, metrics


class TestChromeTraceExport:
    def test_matches_golden_file(self):
        tracer, metrics = build_reference_tracer()
        produced = chrome_trace(tracer, metrics=metrics,
                                process_name="golden-vm")
        golden = json.loads((DATA_DIR / "golden_trace.json").read_text())
        assert produced == golden

    def test_round_trips_through_json(self):
        tracer, metrics = build_reference_tracer()
        produced = chrome_trace(tracer, metrics=metrics)
        assert json.loads(json.dumps(produced)) == produced

    def test_event_geometry(self):
        tracer, _ = build_reference_tracer()
        trace = chrome_trace(tracer)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        update = next(e for e in events if e["name"] == "dsu.update")
        # Simulated ms become trace microseconds.
        assert update["ts"] == 0.0
        assert update["dur"] == pytest.approx(4250.0)
        for event in events:
            assert event["ts"] >= update["ts"]
            assert event["ts"] + event["dur"] <= update["ts"] + update["dur"]

    def test_render_span_tree(self):
        tracer, _ = build_reference_tracer()
        text = render_span_tree(tracer)
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("dsu.update")
        assert any("gc.collect" in line for line in lines)
        # Children indent deeper than their parent.
        depth = {line.lstrip(): len(line) - len(line.lstrip())
                 for line in lines}
        assert depth[lines[0].lstrip()] < min(
            d for text_, d in depth.items() if "gc.collect" in text_
        )


# ---------------------------------------------------------------------------
# Traced updates end-to-end


def run_traced_update(plan=None, timeout_ms=1_000.0, retries=0):
    fixture = UpdateFixture(UPDATE_V1).start()
    if plan is not None:
        fixture.engine.fault_injector = FaultInjector(plan)
    prepared = fixture.prepare(UPDATE_V2)
    request = UpdateRequest(
        prepared,
        policy=UpdatePolicy(
            retry=RetryPolicy(timeout_ms=timeout_ms, retries=retries)
        ),
    )
    holder = {}
    fixture.vm.events.schedule(
        55, lambda: holder.update(result=fixture.engine.submit(request))
    )
    fixture.run(until_ms=6_000)
    return fixture, holder["result"]


class TestTracedUpdates:
    def test_applied_update_span_tree(self):
        fixture, result = run_traced_update()
        assert result.succeeded
        tracer = fixture.vm.tracer
        assert tracer.validate() == []
        update = next(
            s for root in tracer.roots for s in root.walk()
            if s.name == "dsu.update"
        )
        names = {s.name for s in update.walk()}
        assert {"dsu.safepoint.round", "dsu.safepoint.scan", "dsu.classload",
                "dsu.transform", "dsu.cleanup", "gc.collect"} <= names
        assert update.args["status"] == "applied"
        # The span agrees with the result's own accounting.
        assert update.args["pause_ms"] == pytest.approx(
            result.total_pause_ms, abs=1e-6
        )

    def test_rollback_produces_closed_span_tree(self):
        fixture, result = run_traced_update(
            plan=FaultPlan(gc_oom_after_copies=5)
        )
        assert result.status == "aborted"
        assert result.rolled_back
        tracer = fixture.vm.tracer
        assert tracer.validate() == []
        update = next(
            s for root in tracer.roots for s in root.walk()
            if s.name == "dsu.update"
        )
        names = [s.name for s in update.walk()]
        assert "dsu.rollback" in names
        assert update.args["status"] == "aborted"
        assert update.args["rolled_back"] is True
        assert fixture.vm.metrics.counters["dsu.rollbacks"].value == 1

    def test_metrics_snapshot_consistency(self):
        fixture, result = run_traced_update()
        snapshot = fixture.vm.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["dsu.updates_requested"] == 1
        assert counters["dsu.updates_applied"] == 1
        assert "dsu.updates_aborted" not in counters
        assert counters["gc.collections"] >= 1
        assert counters["dsu.transformer_invocations"] >= 1
        histograms = snapshot["histograms"]
        assert histograms["dsu.pause_ms"]["count"] == 1
        assert histograms["dsu.pause_ms"]["last"] == pytest.approx(
            result.total_pause_ms
        )
        assert histograms["dsu.restricted_set_size"]["count"] == 1
        # GC pause accounted inside the update's gc phase.
        assert histograms["gc.pause_ms"]["total"] <= result.phase_ms["gc"] + 1e-6

    def test_timed_out_update_closes_round_spans(self):
        fixture, result = run_traced_update(
            plan=FaultPlan(block_safepoint_forever=True),
            timeout_ms=150.0, retries=1,
        )
        assert result.status == "aborted"
        tracer = fixture.vm.tracer
        assert tracer.validate() == []
        rounds = [
            s for root in tracer.roots for s in root.walk()
            if s.name == "dsu.safepoint.round"
        ]
        assert len(rounds) == 2
        # Both acquisition windows ran out; the abort follows the last one.
        assert [r.args["outcome"] for r in rounds] == ["expired", "expired"]
        assert rounds[1].args["round"] == 1


@pytest.mark.slow
class TestBundledUpdateTraces:
    def test_all_bundled_updates_have_well_formed_traces(self):
        """All 22 updates x eager/lazy apply with sound breakdowns and span
        trees, and lazy keeps per-object work out of the pause: the checks
        are the two pause artifacts' own (``repro report`` gates on them
        too). The sweep is paid for anyway, so the committed
        ``BENCH_pauses.json`` must also still be what it produces."""
        from repro.harness.pauses import pause_figures

        (text, problems), (payload, unsound) = pause_figures()
        assert problems == [] and unsound == []
        assert text.endswith("44 updates measured; all pause breakdowns sound")
        committed = DATA_DIR.parent.parent / "benchmark_results"
        assert (committed / "BENCH_pauses.json").read_text(
            encoding="utf-8"
        ) == payload + "\n"


# ---------------------------------------------------------------------------
# Facade contract


class TestFacade:
    def test_request_update_shim_is_gone(self):
        fixture = UpdateFixture(UPDATE_V1).start()
        fixture.run(until_ms=60)
        prepared = fixture.prepare(UPDATE_V2)
        assert not hasattr(fixture.engine, "request_update")
        result = fixture.engine.submit(
            UpdateRequest(prepared, policy=UpdatePolicy(retry=RetryPolicy(500.0)))
        )
        fixture.run(until_ms=6_000)
        assert result.succeeded

    def test_facade_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            fixture, result = run_traced_update()
        assert result.succeeded

    def test_app_driver_uses_facade(self):
        from repro.harness.pauses import measure_pause

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            row, _ = measure_pause("crossftp", "1.07", "1.08")
        assert row.status == "applied"

    def test_update_request_validates_lint_mode(self):
        fixture = UpdateFixture(UPDATE_V1)
        prepared = fixture.prepare(UPDATE_V2)
        with pytest.raises(ValueError, match="lint"):
            UpdateRequest(prepared, policy=UpdatePolicy(lint="eventually"))

    def test_api_module_exports(self):
        import repro.api as api

        for name in api.__all__:
            assert hasattr(api, name), name

    def test_custom_tracer_override(self):
        fixture = UpdateFixture(UPDATE_V1).start()
        prepared = fixture.prepare(UPDATE_V2)
        tracer = Tracer(fixture.vm.clock)
        request = UpdateRequest(prepared, tracer=tracer)
        holder = {}
        fixture.vm.events.schedule(
            55, lambda: holder.update(result=fixture.engine.submit(request))
        )
        fixture.run(until_ms=6_000)
        assert holder["result"].succeeded
        assert fixture.vm.tracer is tracer
        assert any(
            s.name == "dsu.update" for root in tracer.roots for s in root.walk()
        )
