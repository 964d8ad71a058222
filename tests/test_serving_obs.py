"""Tests for the query-serving observability layer.

Covers structured JSON logging (repro.obs.logging), Prometheus export
(repro.obs.promexport) and serve's /metrics endpoint, the slow-query log
(repro.obs.slowlog), EXPLAIN plans and the plan<->metrics-registry counter
equality of the query engine, the exporter round-trips under the new query
spans, and the benchmark trajectory ledger with its CLI diff gate.
"""

import io
import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench.ledger import (
    LEDGER_FORMAT,
    LedgerEntry,
    append_entry,
    diff_entries,
    entry_from_result,
    ledger_path,
    load_entries,
    normalize_metric,
    render_diff,
)
from repro.bench.reporting import FigureResult
from repro.cli import main
from repro.cube import QueryEngine
from repro.data import save_csv
from repro.obs import (
    configure_logging,
    configure_slow_query_log,
    disable_tracing,
    enable_tracing,
    get_logger,
    log_event,
    logging_config,
    prometheus_name,
    registry,
    render_prometheus,
    render_span_tree,
    reset_logging,
    reset_metrics,
    reset_slow_queries,
    slow_query_log,
    span,
    spans_from_ndjson,
    spans_to_chrome_trace,
    spans_to_ndjson,
    write_trace,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import Span
from repro.serve import CubeService, SnapshotStore, start_server


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts and ends with all observability state zeroed."""
    disable_tracing()
    reset_metrics()
    reset_logging()
    configure_slow_query_log(capacity=32)
    yield
    disable_tracing()
    reset_metrics()
    reset_logging()
    configure_slow_query_log(capacity=32)


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


class TestStructuredLogging:
    def test_records_are_json_with_extras(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        log_event(get_logger("test"), "unit.event", items=3, label="P5")
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "unit.event"
        assert record["level"] == "info"
        assert record["logger"] == "repro.test"
        assert record["items"] == 3
        assert record["label"] == "P5"
        assert isinstance(record["ts"], float)

    def test_span_correlation(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        enable_tracing()
        with span("unit.work"):
            get_logger("test").info("inside")
        record = json.loads(stream.getvalue().strip())
        assert record["span"] == "unit.work"
        assert isinstance(record["span_id"], int) and record["span_id"] > 0

    def test_no_span_fields_outside_spans(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        get_logger("test").info("outside")
        record = json.loads(stream.getvalue().strip())
        assert "span" not in record and "span_id" not in record

    def test_reconfigure_does_not_stack_handlers(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        configure_logging("debug", stream=stream)
        get_logger("test").debug("once")
        lines = [ln for ln in stream.getvalue().splitlines() if ln]
        assert len(lines) == 1

    def test_level_filtering_and_config(self):
        stream = io.StringIO()
        config = configure_logging("warning", stream=stream)
        assert config == {"level": "warning"}
        assert logging_config() == {"level": "warning"}
        get_logger("test").info("dropped")
        get_logger("test").warning("kept")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["event"] == "kept"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")

    def test_reset_clears_config(self):
        configure_logging("info", stream=io.StringIO())
        reset_logging()
        assert logging_config() is None

    def test_exceptions_serialised(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            get_logger("test").exception("failed")
        record = json.loads(stream.getvalue().strip())
        assert record["level"] == "error"
        assert "RuntimeError: boom" in record["exc"]


# ---------------------------------------------------------------------------
# Prometheus export
# ---------------------------------------------------------------------------


#: One Prometheus text-format sample line: name, optional labels, value.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9.eE+-]+(\s|$)|^[a-zA-Z_:]"
    r"[a-zA-Z0-9_:]*(\{[^{}]*\})? \+Inf$"
)


class TestPrometheusExport:
    def test_name_sanitisation(self):
        assert prometheus_name("query.q1.seconds") == "repro_query_q1_seconds"
        assert prometheus_name("weird-name!", "total") == "repro_weird_name_total"

    def test_counter_and_gauge_rendering(self):
        reg = registry()
        reg.counter("unit.requests").inc(7)
        reg.gauge("unit.depth").set(3)
        text = render_prometheus()
        assert "# TYPE repro_unit_requests_total counter" in text
        assert "repro_unit_requests_total 7" in text
        assert "repro_unit_depth 3" in text

    def test_histogram_rendering_is_cumulative(self):
        reg = registry()
        hist = reg.histogram("unit.seconds", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = render_prometheus()
        assert 'repro_unit_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_unit_seconds_bucket{le="1"} 2' in text
        assert 'repro_unit_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_unit_seconds_count 3" in text
        assert "repro_unit_seconds_sum 5.55" in text

    def test_percentiles_recoverable_from_exported_buckets(self):
        """External consumers (Grafana) compute percentiles from the
        ``le``-labelled cumulative bucket series alone; reconstructing the
        p95 from the exported text must agree with the registry's own
        interpolated estimate to within one bucket width."""
        reg = registry()
        bounds = (0.01, 0.05, 0.1, 0.5, 1.0)
        hist = reg.histogram("recon.seconds", bounds=bounds)
        samples = [0.004, 0.02, 0.03, 0.06, 0.07, 0.2, 0.3, 0.4, 0.45, 0.8]
        for value in samples:
            hist.observe(value)
        text = render_prometheus()
        buckets = []
        for line in text.splitlines():
            match = re.match(
                r'repro_recon_seconds_bucket\{le="([^"]+)"\} (\d+)', line
            )
            if match:
                le = (
                    float("inf")
                    if match.group(1) == "+Inf"
                    else float(match.group(1))
                )
                buckets.append((le, int(match.group(2))))
        assert [le for le, _ in buckets] == [*bounds, float("inf")]
        counts = [c for _, c in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == len(samples)
        # histogram_quantile-style reconstruction: the first bucket whose
        # cumulative count reaches rank(q) brackets the percentile.
        target = 0.95 * len(samples)
        upper = next(le for le, c in buckets if c >= target)
        lower = max(
            (le for le, c in buckets if le < upper), default=0.0
        )
        assert lower <= hist.quantile(0.95) <= upper

    def test_every_line_parses_as_prometheus_text(self, running_example):
        engine = QueryEngine.build(running_example)
        engine.skyline("A,B")
        engine.where_wins("P5")
        text = render_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _SAMPLE_RE.match(line), f"unparseable sample line: {line!r}"

    def test_metrics_endpoint(self, running_example, tmp_path):
        engine = QueryEngine.build(running_example)
        engine.skyline("A")
        service = CubeService(SnapshotStore(tmp_path / "snaps"))
        with start_server(service) as server:
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as rsp:
                assert rsp.status == 200
                assert rsp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                body = rsp.read().decode("utf-8")
            assert "repro_query_q1_count_total 1" in body
            with urllib.request.urlopen(f"{server.url}/healthz", timeout=5) as rsp:
                health = json.loads(rsp.read())
            assert health["status"] == "ok"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
            assert err.value.code == 404


# ---------------------------------------------------------------------------
# slow-query log
# ---------------------------------------------------------------------------


def _query_span(seconds, name="query.q1.skyline", **attributes):
    """A finished query span lasting ``seconds``."""
    return Span(
        name=name, start_ns=0, end_ns=round(seconds * 1e9), attributes=attributes
    )


class TestSlowQueryLog:
    def _q(self, seconds, i=0):
        return _query_span(seconds, argument=f"arg{i}")

    def test_retains_worst_n(self):
        log = SlowQueryLog(capacity=3)
        for i, seconds in enumerate([0.5, 0.1, 0.9, 0.3, 0.7]):
            log.record(self._q(seconds, i))
        assert [e.duration_seconds for e in log.entries()] == [0.9, 0.7, 0.5]
        assert log.seen == 5

    def test_fast_queries_do_not_evict(self):
        log = SlowQueryLog(capacity=2)
        log.record(self._q(0.9))
        log.record(self._q(0.8))
        assert log.record(self._q(0.1)) is False
        assert [e.duration_seconds for e in log.entries()] == [0.9, 0.8]

    def test_render_and_clear(self):
        log = SlowQueryLog(capacity=2)
        sp = _query_span(
            0.01,
            name="query.q2.why_not",
            argument="P2 in A",
            strategy="theorem5-fallback",
        )
        sp.count("x", 1)
        log.record(sp)
        text = log.render()
        assert "q2.why_not(P2 in A)" in text
        assert "theorem5-fallback" in text
        assert "[x=1]" in text
        log.clear()
        assert log.render() == "(no queries recorded)"

    def test_concurrent_records_stay_bounded(self):
        log = SlowQueryLog(capacity=4)
        per_thread = 500

        def offer(t):
            for i in range(per_thread):
                log.record(self._q((t * per_thread + i) * 1e-6))

        threads = [threading.Thread(target=offer, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) <= log.capacity
        assert log.seen == 8 * per_thread
        worst = [e.duration_seconds for e in log.entries()]
        top = [(8 * per_thread - k) * 1e-6 for k in range(1, 5)]
        assert worst == pytest.approx(top)

    def test_engine_feeds_global_log(self, running_example):
        engine = QueryEngine.build(running_example)
        reset_slow_queries()
        engine.skyline("A,B")
        engine.where_wins("P5")
        entries = slow_query_log().entries()
        assert {e.name for e in entries} == {
            "query.q1.skyline",
            "query.q2.where_wins",
        }
        assert all(e.attributes["strategy"] for e in entries)
        assert all(e.span_id for e in entries)


# ---------------------------------------------------------------------------
# EXPLAIN plans and the plan <-> registry counter equality
# ---------------------------------------------------------------------------


class TestQueryPlans:
    #: Every explainable kind with arguments valid for ``running_example``.
    CASES = [
        ("skyline", ("A,B",), "decisive-scan"),
        ("where-wins", ("P5",), "lattice-walk"),
        ("wins-in", ("P5", "A,B"), "decisive-hit"),
        ("signature-of", ("P5",), "group-lookup"),
        ("why-not", ("P1", "A"), "theorem5-fallback"),
        ("drill-down", ("A",), "lattice-neighbors"),
        ("roll-up", ("A,B",), "lattice-neighbors"),
        ("top-frequent", (3,), "lattice-walk"),
    ]

    @pytest.mark.parametrize("kind,args,strategy", CASES)
    def test_plan_counters_equal_registry_deltas(
        self, running_example, kind, args, strategy
    ):
        engine = QueryEngine.build(running_example)
        reset_metrics()
        plan = engine.explain(kind, *args)
        assert plan.strategy == strategy
        counters = {c.name: c.value for c in registry().counters().values()}
        for name, value in plan.counters.items():
            assert counters.get(f"query.{name}", 0) == value, name
        assert counters[f"query.strategy.{strategy}"] == 1
        assert counters[f"query.{plan.family}.count"] == 1
        assert "result_preview" in plan.detail

    def test_wins_in_miss_strategy(self, running_example):
        engine = QueryEngine.build(running_example)
        # P1 wins nowhere (dominated by P2 everywhere it could compete).
        plan = engine.explain("wins-in", "P1", "A,B")
        assert plan.strategy == "group-miss"
        assert plan.result_size == 0

    def test_why_not_fallback_counts_dominance_work(self, running_example):
        engine = QueryEngine.build(running_example)
        plan = engine.explain("why-not", "P1", "A")
        # The Theorem-5 fallback tests the object against the whole table.
        assert plan.counters["dominance_comparisons"] == running_example.n_objects
        assert plan.detail["dominators"] >= 1

    def test_latency_histogram_one_observation_per_query(self, running_example):
        engine = QueryEngine.build(running_example)
        reset_metrics()
        engine.skyline("A,B")
        engine.skyline("A")
        assert registry().histogram("query.q1.seconds").count == 2

    def test_explain_result_matches_direct_call(self, running_example):
        engine = QueryEngine.build(running_example)
        direct = engine.skyline("A,B")
        plan = engine.explain("skyline", "A,B")
        assert plan.result_size == len(direct)
        for label in direct:
            assert label in plan.detail["result_preview"]

    def test_explain_rejects_unknown_kind(self, running_example):
        engine = QueryEngine.build(running_example)
        with pytest.raises(ValueError, match="known queries"):
            engine.explain("frobnicate", "A")

    def test_explain_rejects_wrong_arity(self, running_example):
        engine = QueryEngine.build(running_example)
        with pytest.raises(ValueError, match="argument"):
            engine.explain("wins-in", "P5")

    def test_top_frequent_returns_labels(self, running_example):
        engine = QueryEngine.build(running_example)
        top = engine.top_frequent(2)
        assert len(top) == 2
        assert all(
            label in running_example.labels and freq > 0 for label, freq in top
        )

    def test_plan_render_mentions_all_counters(self, running_example):
        engine = QueryEngine.build(running_example)
        text = engine.explain("skyline", "A,B").render()
        assert text.startswith("EXPLAIN q1.skyline(A,B)")
        for needle in ("strategy:", "groups considered:", "interval checks:",
                       "dominance comparisons:", "elapsed:"):
            assert needle in text


# ---------------------------------------------------------------------------
# exporter round-trips under query spans
# ---------------------------------------------------------------------------


class TestExportersUnderQueryLoad:
    def _session_spans(self, dataset):
        tracer = enable_tracing()
        engine = QueryEngine.build(dataset)
        engine.skyline("A,B")
        engine.where_wins("P5")
        engine.why_not("P1", "A")
        engine.top_frequent(2)
        disable_tracing()
        return tracer.roots

    def test_ndjson_roundtrip_of_full_session(self, running_example):
        roots = self._session_spans(running_example)
        assert any(r.name.startswith("query.") for r in roots)
        assert spans_from_ndjson(spans_to_ndjson(roots)) == roots

    def test_chrome_trace_of_full_session_is_valid(self, running_example):
        roots = self._session_spans(running_example)
        trace = spans_to_chrome_trace(roots)
        json.dumps(trace)  # must be serialisable as-is
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        names = {e["name"] for e in events}
        assert "query.q1.skyline" in names
        assert "query.q2.why_not" in names

    def test_write_trace_rejects_unknown_suffix(self, tmp_path):
        with span("unit"):
            pass
        with pytest.raises(ValueError, match=r"\.json.*\.jsonl.*\.ndjson"):
            write_trace(tmp_path / "trace.txt", [])

    def test_write_trace_suffixes_still_work(self, tmp_path, running_example):
        roots = self._session_spans(running_example)
        ndjson = write_trace(tmp_path / "t.ndjson", roots)
        chrome = write_trace(tmp_path / "t.json", roots)
        assert spans_from_ndjson(ndjson.read_text()) == roots
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_span_tree_details_are_single_line_and_truncated(self):
        tracer = enable_tracing()
        with span("unit", note="line1\nline2", blob="x" * 200):
            pass
        disable_tracing()
        text = render_span_tree(tracer.roots)
        line = next(ln for ln in text.splitlines() if "unit" in ln)
        assert "line1\\nline2" in line
        assert "x" * 200 not in line and "…" in line


# ---------------------------------------------------------------------------
# benchmark trajectory ledger
# ---------------------------------------------------------------------------


def _entry(metrics, figure="fig8", scale="smoke", created=1000.0):
    return LedgerEntry(
        figure=figure, scale=scale, created=created, metrics=metrics
    )


class TestLedger:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = ledger_path(tmp_path, "fig8")
        assert path.name == "BENCH_fig8.json"
        first = _entry({"stellar_total_s": 0.5})
        second = _entry({"stellar_total_s": 0.6}, created=2000.0)
        assert append_entry(path, first) == 0
        assert append_entry(path, second) == 1
        loaded = load_entries(path)
        assert loaded == [first, second]
        assert json.loads(path.read_text())["format"] == LEDGER_FORMAT

    def test_legacy_parallel_fields_load_and_diff(self, tmp_path):
        # Entries written before the ledger dropped its ``parallel`` and
        # ``workers`` fields (the committed BENCH_fig8.json has one) must
        # still load, round-trip without them and diff.
        legacy = {
            "figure": "fig8",
            "scale": "smoke",
            "created": 1000.0,
            "metrics": {"stellar_total_s": 0.5, "points_measured": 6},
            "workload": {"figure": "Figure 8"},
            "parallel": "serial",
            "workers": 1,
            "host_cpus": 2,
            "python": "3.11.7",
        }
        path = ledger_path(tmp_path, "fig8")
        path.write_text(
            json.dumps({"format": LEDGER_FORMAT, "entries": [legacy]})
        )
        (base,) = load_entries(path)
        assert base.host_cpus == 2
        assert "parallel" not in base.to_dict()
        cand = _entry({"stellar_total_s": 1.0, "points_measured": 6})
        append_entry(path, cand)
        assert load_entries(path) == [base, cand]
        by_name = {d.metric: d for d in diff_entries(base, cand, 0.5)}
        assert by_name["stellar_total_s"].regressed
        assert not by_name["points_measured"].regressed

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_entries(tmp_path / "BENCH_nope.json") == []

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ValueError, match="not a repro-bench-ledger"):
            load_entries(path)

    def test_entry_from_result_normalises_timing_columns(self):
        result = FigureResult(
            figure="Figure 8",
            title="unit",
            headers=["d", "stellar_s", "skyey_s"],
            rows=[[2, 0.1, 0.4], [3, 0.2, None], [4, 0.3, 0.6]],
        )
        entry = entry_from_result(
            result, figure="fig8", scale="smoke", comparisons=1234
        )
        assert entry.metrics["stellar_total_s"] == pytest.approx(0.6)
        assert entry.metrics["skyey_total_s"] == pytest.approx(1.0)
        assert entry.metrics["points_measured"] == 3
        assert entry.metrics["dominance_comparisons"] == 1234
        assert entry.host_cpus >= 1

    def test_diff_flags_2x_regression(self):
        base = _entry({"stellar_total_s": 0.5, "dominance_comparisons": 100})
        cand = _entry({"stellar_total_s": 1.0, "dominance_comparisons": 100})
        diffs = diff_entries(base, cand, threshold=0.5)
        by_name = {d.metric: d for d in diffs}
        assert by_name["stellar_total_s"].regressed
        assert by_name["stellar_total_s"].ratio == pytest.approx(2.0)
        assert not by_name["dominance_comparisons"].regressed
        # A generous threshold keeps the same movement green.
        assert not any(
            d.regressed for d in diff_entries(base, cand, threshold=1.5)
        )

    def test_diff_zero_baseline(self):
        diffs = diff_entries(_entry({"m": 0}), _entry({"m": 3}), threshold=0.5)
        assert diffs[0].ratio == float("inf") and diffs[0].regressed

    def test_render_diff(self):
        base = _entry({"stellar_total_s": 0.5})
        cand = _entry({"stellar_total_s": 1.1}, created=2000.0)
        diffs = diff_entries(base, cand, threshold=0.25)
        text = render_diff(base, cand, diffs, 0.25)
        assert "REGRESSION" in text
        assert "1 regression(s) beyond threshold" in text

    def test_numeric_normalization(self, tmp_path):
        """Integral metrics serialize as ints, float-or-int on read alike."""
        assert normalize_metric(6.0) == 6 and isinstance(
            normalize_metric(6.0), int
        )
        assert normalize_metric(6) == 6 and isinstance(normalize_metric(6), int)
        assert normalize_metric(0.25) == 0.25 and isinstance(
            normalize_metric(0.25), float
        )
        path = ledger_path(tmp_path, "norm")
        append_entry(
            path, _entry({"points_measured": 6.0, "total_s": 1.25})
        )
        raw = json.loads(path.read_text())["entries"][0]["metrics"]
        assert raw["points_measured"] == 6
        assert isinstance(raw["points_measured"], int)
        assert isinstance(raw["total_s"], float)
        # Reading a legacy file with the float spelling normalizes too.
        (loaded,) = load_entries(path)
        assert isinstance(loaded.metrics["points_measured"], int)

    def test_diff_only_filters_metrics(self):
        base = _entry({"skyline_p99_s": 0.010, "shed_rate": 0.0})
        cand = _entry({"skyline_p99_s": 0.011, "shed_rate": 1.0})
        all_diffs = diff_entries(base, cand, threshold=0.5)
        assert any(d.regressed for d in all_diffs)  # shed_rate blew up
        gated = diff_entries(base, cand, threshold=0.5, only=["*_p99_s"])
        assert [d.metric for d in gated] == ["skyline_p99_s"]
        assert not any(d.regressed for d in gated)
        assert diff_entries(base, cand, only=["nomatch*"]) == []


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


@pytest.fixture
def routes_csv(tmp_path, flight_routes):
    path = tmp_path / "routes.csv"
    save_csv(flight_routes, path)
    return str(path)


class TestServingCli:
    def test_query_explain(self, routes_csv, capsys):
        rc = main(
            ["query", "--input", routes_csv, "--skyline-of", "price", "--explain"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "EXPLAIN q1.skyline(price)" in out
        assert "strategy:              decisive-scan" in out

    def test_query_wins_in_exit_codes(self, routes_csv, capsys):
        assert (
            main(["query", "--input", routes_csv, "--wins-in",
                  "BUDGET-LHR", "price"]) == 0
        )
        assert capsys.readouterr().out.strip() == "yes"
        assert (
            main(["query", "--input", routes_csv, "--wins-in",
                  "SLOW-EXPENSIVE", "price"]) == 1
        )
        assert capsys.readouterr().out.strip() == "no"

    def test_query_why_not(self, routes_csv, capsys):
        rc = main(
            ["query", "--input", routes_csv, "--why-not",
             "SLOW-EXPENSIVE", "price,stops"]
        )
        assert rc == 0
        assert "SLOW-EXPENSIVE" in capsys.readouterr().out

    def test_query_signature_of(self, routes_csv, capsys):
        rc = main(["query", "--input", routes_csv, "--signature-of", "DIRECT"])
        assert rc == 0
        assert "DIRECT" in capsys.readouterr().out

    def test_query_unknown_label_is_a_clean_error(self, routes_csv, capsys):
        rc = main(["query", "--input", routes_csv, "--where-wins", "NOPE"])
        assert rc == 2
        assert "unknown object label" in capsys.readouterr().err

    def test_slowlog_flag_prints_report(self, routes_csv, capsys):
        rc = main(
            ["query", "--input", routes_csv, "--skyline-of", "price",
             "--slowlog", "5"]
        )
        assert rc == 0
        assert "slow-query log:" in capsys.readouterr().out

    def test_log_json_flag_emits_records(self, routes_csv, capsys):
        rc = main(
            ["query", "--input", routes_csv, "--skyline-of", "price",
             "--log-json", "debug"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        served = [
            json.loads(line)
            for line in err.splitlines()
            if '"query.served"' in line
        ]
        assert served and served[0]["strategy"] == "decisive-scan"

    def test_trace_bad_suffix_is_a_clean_error(self, routes_csv, capsys, tmp_path):
        rc = main(
            ["query", "--input", routes_csv, "--skyline-of", "price",
             "--trace", str(tmp_path / "trace.txt")]
        )
        assert rc == 2
        assert "unsupported trace file suffix" in capsys.readouterr().err

    def test_bench_appends_ledger_entry(self, tmp_path, capsys):
        rc = main(
            ["bench", "fig10", "--scale", "smoke", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert "ledger entry 0 appended" in capsys.readouterr().out
        entries = load_entries(ledger_path(tmp_path, "fig10"))
        assert len(entries) == 1
        assert entries[0].scale == "smoke"
        assert entries[0].metrics["dominance_comparisons"] > 0

    def test_bench_no_ledger_opt_out(self, tmp_path, capsys):
        rc = main(
            ["bench", "fig10", "--scale", "smoke", "--out", str(tmp_path),
             "--no-ledger"]
        )
        assert rc == 0
        assert not ledger_path(tmp_path, "fig10").exists()

    def test_bench_diff_gates_on_injected_regression(self, tmp_path, capsys):
        path = ledger_path(tmp_path, "fig8")
        append_entry(path, _entry({"stellar_total_s": 0.5}))
        append_entry(path, _entry({"stellar_total_s": 1.0}, created=2000.0))
        rc = main(
            ["bench", "diff", "--ledger", str(path), "--threshold", "0.5"]
        )
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out
        # The same ledger passes under a threshold above the 2x movement.
        assert (
            main(["bench", "diff", "--ledger", str(path),
                  "--threshold", "1.5"]) == 0
        )

    def test_bench_diff_requires_ledger(self, capsys):
        assert main(["bench", "diff"]) == 2
        assert "--ledger" in capsys.readouterr().err

    def test_bench_diff_missing_file(self, tmp_path, capsys):
        rc = main(["bench", "diff", "--ledger", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no ledger entries" in capsys.readouterr().err
