"""Tests for the observability layer (repro.obs) and its instrumentation."""

import json
import math

import pytest

from repro.obs import (
    NULL_SPAN,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    profiled,
    registry,
    render_span_tree,
    reset_metrics,
    span,
    spans_from_ndjson,
    spans_to_chrome_trace,
    spans_to_ndjson,
    traced,
    tracing_enabled,
    write_trace,
)


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts and ends with tracing off and metrics zeroed."""
    disable_tracing()
    reset_metrics()
    yield
    disable_tracing()
    reset_metrics()


class TestSpanNesting:
    def test_nesting_and_timing(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner-1") as inner1:
                pass
            with tracer.span("inner-2"):
                with tracer.span("leaf"):
                    pass
        assert [r.name for r in tracer.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
        assert outer.children[1].children[0].name == "leaf"
        assert inner1.end_ns is not None
        # A parent's interval contains its children's total duration.
        child_total = sum(c.duration_ns for c in outer.children)
        assert outer.duration_ns >= child_total >= 0

    def test_attributes_and_counters(self):
        tracer = Tracer()
        with tracer.span("work", algorithm="sfs") as sp:
            sp.count("items", 3)
            sp.count("items", 2)
            sp.annotate(phase="scan")
        assert sp.attributes == {"algorithm": "sfs", "phase": "scan"}
        assert sp.counters == {"items": 5}

    def test_walk_and_find(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        root = tracer.roots[0]
        assert [s.name for s in root.walk()] == ["a", "b", "c"]
        assert root.find("c").name == "c"
        assert root.find("nope") is None

    def test_ambient_span_attaches_to_open_tracer(self):
        tracer = Tracer()
        with tracer.span("outer"):
            assert current_tracer() is tracer
            with span("ambient"):
                pass
        assert [c.name for c in tracer.roots[0].children] == ["ambient"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]


class TestDisabledFastPath:
    def test_span_returns_shared_singleton(self):
        assert not tracing_enabled()
        assert span("a") is span("b") is NULL_SPAN

    def test_null_span_api_is_inert(self):
        with span("nothing") as sp:
            assert sp is NULL_SPAN
            assert sp.count("x", 5) is NULL_SPAN
            assert sp.annotate(k="v") is NULL_SPAN
        assert NULL_SPAN.counters == {}
        assert NULL_SPAN.attributes == {}

    def test_traced_passthrough_when_disabled(self):
        calls = []

        @traced
        def work(x):
            calls.append(x)
            return x * 2

        assert work(21) == 42
        assert calls == [21]

    def test_traced_records_when_enabled(self):
        @traced(name="labelled")
        def work():
            return "ok"

        tracer = enable_tracing()
        try:
            assert work() == "ok"
        finally:
            disable_tracing()
        assert [r.name for r in tracer.roots] == ["labelled"]

    def test_enable_disable_round_trip(self):
        tracer = enable_tracing()
        assert tracing_enabled()
        assert current_tracer() is tracer
        disable_tracing()
        assert not tracing_enabled()


class TestHistogram:
    def test_percentiles_of_uniform_samples(self):
        h = Histogram("t", bounds=tuple(float(b) for b in range(1, 101)))
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.p50 == pytest.approx(50.0, abs=1.0)
        assert h.p95 == pytest.approx(95.0, abs=1.0)
        assert h.p99 == pytest.approx(99.0, abs=1.0)
        assert h.quantile(1.0) == pytest.approx(100.0, abs=1.0)

    def test_overflow_bucket_reports_max(self):
        h = Histogram("t", bounds=(1.0,))
        h.observe(500.0)
        h.observe(900.0)
        assert h.p99 == 900.0

    def test_empty_histogram(self):
        h = Histogram("t")
        assert math.isnan(h.p50)
        assert math.isnan(h.mean)

    def test_estimates_clamped_to_observed_range(self):
        h = Histogram("t", bounds=(1.0, 100.0))
        h.observe(40.0)
        assert h.p50 == 40.0
        assert h.min == 40.0 and h.max == 40.0

    def test_quantile_validation(self):
        h = Histogram("t")
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestRegistry:
    def test_counter_gauge_histogram_lifecycle(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(0.01)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_reset_keeps_handles_valid(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        h = reg.histogram("h")
        c.inc(3)
        h.observe(1.0)
        reg.reset()
        assert c.value == 0 and h.count == 0
        c.inc()
        assert reg.counter("c").value == 1

    def test_render_mentions_percentiles(self):
        reg = MetricsRegistry()
        for _ in range(10):
            reg.histogram("query.q1.seconds").observe(0.002)
        text = reg.render()
        assert "p50" in text and "p95" in text and "p99" in text

    def test_global_registry_is_shared(self):
        assert registry() is registry()


def _sample_trace() -> list[Span]:
    tracer = Tracer()
    with tracer.span("root", algorithm="stellar") as root:
        root.count("comparisons", 12)
        with tracer.span("child-a"):
            pass
        with tracer.span("child-b") as b:
            b.annotate(note="deep")
            with tracer.span("leaf"):
                pass
    return tracer.roots


class TestExport:
    def test_ndjson_round_trip(self):
        roots = _sample_trace()
        rebuilt = spans_from_ndjson(spans_to_ndjson(roots))
        assert rebuilt == roots

    def test_ndjson_is_line_oriented_json(self):
        lines = spans_to_ndjson(_sample_trace()).strip().splitlines()
        assert len(lines) == 4  # root + child-a + child-b + leaf
        required = {"span_id", "parent_span_id", "name", "start_ns", "end_ns"}
        for line in lines:
            payload = json.loads(line)
            assert required <= set(payload)

    def test_chrome_trace_structure(self):
        doc = spans_to_chrome_trace(_sample_trace())
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["root", "child-a", "child-b", "leaf"]
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        root = events[0]
        assert root["args"]["comparisons"] == 12
        assert root["args"]["algorithm"] == "stellar"

    def test_write_trace_picks_format_by_suffix(self, tmp_path):
        roots = _sample_trace()
        chrome = write_trace(tmp_path / "t.json", roots)
        nd = write_trace(tmp_path / "t.ndjson", roots)
        assert "traceEvents" in json.loads(chrome.read_text())
        assert len(spans_from_ndjson(nd.read_text())) == 1

    def test_render_tree(self):
        text = render_span_tree(_sample_trace())
        assert "root" in text
        assert "└─ leaf" in text
        assert "ms" in text


class TestProfiling:
    def test_profiled_collects_hotspots(self):
        def busy():
            return sum(i * i for i in range(20_000))

        with profiled(top_n=5) as report:
            busy()
        assert report.seconds > 0
        assert report.hotspots
        assert report.peak_memory_kb is not None
        assert any("busy" in h.function for h in report.hotspots)
        assert "profile:" in report.render()

    def test_profiled_annotates_span(self):
        tracer = Tracer()
        with tracer.span("work") as sp, profiled(span=sp, trace_memory=False):
            sum(range(1000))
        assert "profile_top" in sp.attributes

    def test_profiled_accepts_null_span(self):
        with profiled(span=NULL_SPAN, trace_memory=False):
            pass  # must not raise


class TestStellarInstrumentation:
    def test_phase_spans_and_derived_timings(self, running_example):
        from repro import stellar

        stats = stellar(running_example).stats
        assert stats.root_span is not None
        assert stats.root_span.name == "stellar"
        phases = [c.name for c in stats.root_span.children]
        assert phases == [
            "full_space_skyline",
            "maximal_cgroups",
            "seed_decisive",
            "nonseed_extension",
        ]
        # Legacy dict view: same keys, values match the span durations.
        assert set(stats.timings) == set(phases)
        for child in stats.root_span.children:
            assert stats.timings[child.name] == child.duration_seconds
        assert stats.total_seconds == pytest.approx(
            sum(c.duration_seconds for c in stats.root_span.children)
        )

    def test_phase_comparison_counters(self, running_example):
        from repro import stellar

        root = stellar(running_example).stats.root_span
        seed_phase = root.find("full_space_skyline")
        assert seed_phase.counters["dominance_comparisons"] > 0

    def test_spans_attach_to_ambient_tracer(self, running_example):
        from repro import stellar

        tracer = enable_tracing()
        try:
            stellar(running_example)
        finally:
            disable_tracing()
        root = tracer.roots[0]
        assert root.name == "stellar"
        assert root.find("full_space_skyline") is not None
        # The seed skyline call is itself traced via the registry.
        assert any(s.name.startswith("skyline.") for s in root.walk())

    def test_skyey_spans(self, running_example):
        from repro import skyey

        stats = skyey(running_example).stats
        assert stats.root_span.name == "skyey"
        assert set(stats.timings) == {"subspace_search", "group_assembly"}
        assert stats.total_seconds > 0


class TestDominanceCounters:
    def test_comparisons_counted(self, running_example):
        from repro.core.dominance import COMPARISONS
        from repro.skyline import compute_skyline

        COMPARISONS.reset()
        compute_skyline(running_example, None, algorithm="sfs")
        sfs = COMPARISONS.reset()
        compute_skyline(running_example, None, algorithm="brute")
        brute = COMPARISONS.reset()
        assert sfs > 0
        assert brute == running_example.n_objects**2

    def test_reset_returns_previous_value(self):
        from repro.core.dominance import COMPARISONS

        COMPARISONS.reset()
        COMPARISONS.add(7)
        assert COMPARISONS.reset() == 7
        assert COMPARISONS.value == 0


class TestQueryMetrics:
    def test_q1_q2_latency_histograms(self, flight_routes):
        from repro.cube import QueryEngine

        engine = QueryEngine.build(flight_routes)
        engine.skyline("price,stops")
        engine.where_wins(flight_routes.labels[0])
        reg = registry()
        assert reg.histogram("query.q1.seconds").count == 1
        assert reg.histogram("query.q2.seconds").count == 1
        assert reg.counter("query.q1.count").value == 1
        assert reg.counter("query.q2.count").value == 1
        assert reg.histogram("query.q1.seconds").p99 > 0
