"""Tests for end-to-end request correlation (PR 8).

Covers the W3C ``traceparent`` codec and ContextVar plumbing
(repro.obs.context), the serving layer's header contract
(``x-repro-trace-id`` echoed on every response, sheds included), the
tail-sampling trace sink with
cross-process reassembly and wall-clock phase attribution
(repro.obs.tracesink), OpenMetrics exemplars + content negotiation
(repro.obs.promexport), slow-query-log trace correlation, the loadtest
report's slowest-requests table, and the ``repro trace`` CLI.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core.stellar import stellar
from repro.cube import CompressedSkylineCube
from repro.data import save_csv
from repro.loadtest.report import slowest, summarize
from repro.loadtest.runner import (
    LoadtestConfig,
    LoadtestResult,
    RequestRecord,
)
from repro.obs import (
    TraceContext,
    configure_slow_query_log,
    current_trace_context,
    disable_slow_query_log,
    format_span_id,
    parse_traceparent,
    registry,
    slow_query_log,
    trace_keep,
    use_trace_context,
)
from repro.obs.promexport import (
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    negotiate_exposition,
    render_openmetrics,
    render_prometheus,
)
from repro.obs.slo import SLOEngine, default_serving_slos
from repro.obs.tracesink import (
    TraceSink,
    assemble_trace,
    critical_path,
    install_trace_sink,
    list_traces,
    load_trace,
    span_records,
    uninstall_trace_sink,
)
from repro.obs.tracing import Span, Tracer
from repro.serve import AdmissionController, CubeService, SnapshotStore

TID = "0af7651916cd43dd8448eb211c80319c"
STELLAR_PHASES = (
    "full_space_skyline",
    "maximal_cgroups",
    "seed_decisive",
    "nonseed_extension",
)


@pytest.fixture(autouse=True)
def _clean_registry():
    registry().reset()
    yield
    registry().reset()


# -- traceparent codec -------------------------------------------------------


class TestTraceparent:
    def test_round_trip(self):
        ctx = TraceContext.new("/v1/skyline")
        parsed = parse_traceparent(ctx.child(0x1234).to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.parent_span_id == 0x1234
        assert parsed.sampled is True

    def test_spec_example_parses(self):
        ctx = parse_traceparent(f"00-{TID}-00f067aa0ba902b7-01")
        assert ctx.trace_id == TID
        assert ctx.parent_span_id == 0x00F067AA0BA902B7
        assert ctx.sampled is True

    def test_unsampled_flag(self):
        ctx = parse_traceparent(f"00-{TID}-00f067aa0ba902b7-00")
        assert ctx.sampled is False

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "garbage",
            f"00-{TID}-00f067aa0ba902b7",  # missing flags
            f"00-{TID[:-1]}-00f067aa0ba902b7-01",  # short trace id
            f"00-{TID.upper()}-00f067aa0ba902b7-01",  # uppercase hex
            f"ff-{TID}-00f067aa0ba902b7-01",  # forbidden version
            "00-" + "0" * 32 + "-00f067aa0ba902b7-01",  # zero trace id
            f"00-{TID}-" + "0" * 16 + "-01",  # zero parent id
            f"00-{TID}-00f067aa0ba902b7-01-extra",  # v00 trailing data
        ],
    )
    def test_malformed_values_rejected(self, value):
        assert parse_traceparent(value) is None

    def test_future_version_with_extra_fields_parses(self):
        ctx = parse_traceparent(f"01-{TID}-00f067aa0ba902b7-01-future-stuff")
        assert ctx is not None
        assert ctx.trace_id == TID

    def test_new_contexts_are_distinct(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert a.trace_id != b.trace_id
        assert len(a.trace_id) == 32

    def test_format_span_id_is_16_hex(self):
        assert format_span_id(0x1234) == "0000000000001234"
        assert len(format_span_id(2**64 + 5)) == 16


class TestTraceKeep:
    def test_deterministic(self):
        assert trace_keep(TID, 0.5) == trace_keep(TID, 0.5)

    def test_extremes(self):
        assert trace_keep(TID, 1.0) is True
        assert trace_keep(TID, 0.0) is False


class TestContextVar:
    def test_default_is_none(self):
        assert current_trace_context() is None

    def test_use_installs_and_restores(self):
        ctx = TraceContext.new()
        with use_trace_context(ctx):
            assert current_trace_context() is ctx
        assert current_trace_context() is None

    def test_spans_pick_up_trace_id(self):
        tracer = Tracer()
        ctx = TraceContext.new().child(99)
        with use_trace_context(ctx):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    pass
        assert outer.trace_id == ctx.trace_id
        assert outer.parent_span_id == 99
        assert inner.trace_id == ctx.trace_id
        assert inner.parent_span_id == outer.span_id


# -- serving header contract -------------------------------------------------


@pytest.fixture
def sink(tmp_path):
    """The installed process-wide sink, keeping only slow/error/shed roots."""
    installed = install_trace_sink(tmp_path / "traces", slow_threshold_s=60.0)
    installed.keep_probability = 0.0
    yield installed
    uninstall_trace_sink()


@pytest.fixture
def service(tmp_path, flight_routes, sink):
    store = SnapshotStore(tmp_path / "snapshots")
    cube = CompressedSkylineCube.build(flight_routes)
    store.publish("routes", flight_routes, cube)
    return CubeService(
        store,
        reload_interval=0,
        admission=AdmissionController(max_concurrency=1, queue_limit=0),
    )


class TestServeTraceHeaders:
    def test_fresh_trace_id_echoed(self, service):
        status, _, headers = service.handle_http(
            "GET", "/v1/skyline", {"subspace": ["price"]}, {}
        )
        assert status == 200
        assert len(headers["x-repro-trace-id"]) == 32

    def test_inbound_traceparent_continued(self, service):
        inbound = {"traceparent": f"00-{TID}-00f067aa0ba902b7-01"}
        _, _, headers = service.handle_http(
            "GET", "/v1/skyline", {"subspace": ["price"]}, {}, inbound
        )
        assert headers["x-repro-trace-id"] == TID

    def test_malformed_traceparent_mints_fresh(self, service):
        _, _, headers = service.handle_http(
            "GET", "/v1/skyline", {"subspace": ["price"]}, {},
            {"traceparent": "ff-bogus"},
        )
        assert headers["x-repro-trace-id"] != TID
        assert len(headers["x-repro-trace-id"]) == 32

    def test_shed_response_carries_trace_id_and_is_kept(self, service, sink):
        with service.admission.admit():  # occupy the only slot
            status, payload, headers = service.handle_http(
                "GET", "/v1/skyline", {"subspace": ["price"]}, {},
                {"traceparent": f"00-{TID}-00f067aa0ba902b7-01"},
            )
        assert status == 503
        assert payload["error"] == "overloaded"
        assert headers["x-repro-trace-id"] == TID
        # Sheds are always kept by tail sampling, keep_probability=0 or not.
        assert load_trace(sink.root, TID)

    def test_fast_success_dropped_at_zero_probability(self, service, sink):
        _, _, headers = service.handle_http(
            "GET", "/v1/skyline", {"subspace": ["price"]}, {}
        )
        assert not load_trace(sink.root, headers["x-repro-trace-id"])

    def test_fast_success_follows_the_hash(self, service, sink):
        sink.keep_probability = 0.5
        kept = {}
        for i in range(1, 17):
            tid = f"{i * 0x0FFFFFFF:08x}" + "0" * 23 + "1"
            status, _, _ = service.handle_http(
                "GET", "/v1/skyline", {"subspace": ["price"]}, {},
                {"traceparent": f"00-{tid}-00f067aa0ba902b7-01"},
            )
            assert status == 200
            kept[tid] = bool(load_trace(sink.root, tid))
        assert kept == {tid: trace_keep(tid, 0.5) for tid in kept}
        assert set(kept.values()) == {True, False}

    def test_unwritable_sink_does_not_fail_the_request(self, service, sink):
        sink.keep_probability = 1.0
        sink.root.rmdir()
        status, _, _ = service.handle_http(
            "GET", "/v1/skyline", {"subspace": ["price"]}, {}
        )
        assert status == 200
        assert sink.dropped == 1

    def test_error_response_kept(self, service, sink):
        status, _, headers = service.handle_http(
            "GET", "/v1/skyline", {"subspace": ["price"]}, {},
            {"traceparent": f"00-{TID}-00f067aa0ba902b7-01"},
        )
        assert status == 200  # baseline: this id would normally be dropped
        status, _, headers = service.handle_http(
            "GET", "/v1/nope", {}, {},
            {"traceparent": f"00-{TID}-00f067aa0ba902b7-01"},
        )
        assert status == 404  # unknown endpoint is a 4xx, not kept
        assert not load_trace(sink.root, TID)


# -- trace sink --------------------------------------------------------------


def _span(name, start, end, span_id, parent=0, **attrs):
    sp = Span(name=name, start_ns=start, end_ns=end, attributes=attrs)
    sp.span_id = span_id
    sp.parent_span_id = parent
    sp.trace_id = TID
    return sp


class TestTraceSink:
    def test_keep_rules(self, tmp_path):
        sink = TraceSink(
            tmp_path, slow_threshold_s=0.1, keep_probability=0.0
        )
        assert sink.should_keep(TID, seconds=0.01) is False
        assert sink.should_keep(TID, seconds=0.5) is True
        assert sink.should_keep(TID, seconds=0.01, error=True) is True
        assert sink.should_keep(TID, seconds=0.01, shed=True) is True
        assert TraceSink(tmp_path, keep_probability=1.0).should_keep(
            TID, seconds=0.0
        )

    def test_offer_and_load_round_trip(self, tmp_path):
        sink = TraceSink(tmp_path, keep_probability=1.0)
        root = _span("serve.request", 0, 5_000_000, 10, endpoint="/v1/x")
        root.children.append(_span("serve.query", 1, 4_000_000, 11, 10))
        sink("end", root, True)
        assert sink.kept == 1
        records = load_trace(tmp_path, TID)
        assert [r["name"] for r in records] == [
            "serve.request",
            "serve.query",
        ]
        assert all(r["trace_id"] == TID for r in records)

    def test_offer_rejects_unsafe_ids(self, tmp_path):
        sink = TraceSink(tmp_path, keep_probability=1.0)
        assert sink.offer("../evil", [{"span_id": 1}]) is False
        assert sink.offer("short", [{"span_id": 1}]) is False
        assert sink.dropped == 2

    def test_spanless_root_dropped(self, tmp_path):
        sink = TraceSink(tmp_path, keep_probability=1.0)
        sink("end", Span(name="no-trace", start_ns=0, end_ns=1), True)
        # Only closing roots are offered: a start event or a child is not.
        sink("start", _span("serve.request", 0, None, 1), True)
        sink("end", _span("serve.query", 0, 1, 2, 1), False)
        assert sink.kept == 0
        assert not list(tmp_path.glob("*.ndjson"))

    @pytest.mark.parametrize(
        ("name", "attributes", "error", "shed", "source"),
        [
            ("serve.request", {"status": 503}, True, True, "server"),
            ("serve.request", {"status": 500}, True, False, "server"),
            ("client.request", {"status": 0}, True, False, "client"),
            ("client.request", {"status": 200, "error": "URLError()"},
             True, False, "client"),
        ],
        ids=["shed", "server-error", "client-status-0", "client-error"],
    )
    def test_root_keep_inputs(
        self, sink, monkeypatch, name, attributes, error, shed, source
    ):
        offered = []
        real_offer = sink.offer

        def spy(trace_id, records, **kw):
            offered.append(kw)
            return real_offer(trace_id, records, **kw)

        monkeypatch.setattr(sink, "offer", spy)
        with use_trace_context(TraceContext(trace_id=TID)):
            with Tracer().span(name, **attributes):
                with Tracer().span("nested.root.of.another.tracer"):
                    pass
        # The inner span is its own tracer's root: both roots are offered.
        assert [kw["error"] for kw in offered] == [False, error]
        assert offered[1]["shed"] is shed
        (record,) = [r for r in load_trace(sink.root, TID) if r["name"] == name]
        assert record["source"] == source

    def test_max_traces_bound(self, tmp_path):
        sink = TraceSink(tmp_path, keep_probability=1.0, max_traces=1)
        first = "a" * 32
        second = "b" * 32
        assert sink.offer(first, [{"span_id": 1, "name": "x"}]) is True
        assert sink.offer(second, [{"span_id": 2, "name": "y"}]) is False
        # An existing trace still accepts late records (worker subtrees).
        assert sink.offer(first, [{"span_id": 3, "name": "z"}]) is True
        assert len(load_trace(tmp_path, first)) == 2

    def test_torn_tail_line_skipped(self, tmp_path):
        sink = TraceSink(tmp_path, keep_probability=1.0)
        sink.offer(TID, [{"span_id": 1, "name": "ok"}])
        with (tmp_path / f"{TID}.ndjson").open("a") as fh:
            fh.write('{"span_id": 2, "name": "torn')
        assert [r["name"] for r in load_trace(tmp_path, TID)] == ["ok"]

    def test_list_traces_newest_first(self, tmp_path):
        sink = TraceSink(tmp_path, keep_probability=1.0)
        a, b = "a" * 32, "b" * 32
        sink.offer(a, [{"span_id": 1, "name": "x", "start_ns": 0}])
        sink.offer(b, [{"span_id": 2, "name": "y", "start_ns": 0}])
        os.utime(tmp_path / f"{b}.ndjson", (2_000_000_000, 2_000_000_000))
        summaries = list_traces(tmp_path)
        assert [s["trace_id"] for s in summaries] == [b, a]


class TestAssembleAndCriticalPath:
    def test_cross_process_records_stitch(self):
        ms = 1_000_000
        server = _span("serve.request", 0, 10 * ms, 1, endpoint="/v1/x")
        client = _span("client.request", 0, 12 * ms, 2)
        server.parent_span_id = 2
        records = span_records(client, trace_id=TID, source="client", pid=7)
        records += span_records(server, trace_id=TID, source="server", pid=8)
        roots = assemble_trace(records)
        assert len(roots) == 1
        assert roots[0].span.name == "client.request"
        assert roots[0].source == "client"
        assert [c.span.name for c in roots[0].children] == ["serve.request"]
        assert roots[0].children[0].pid == 8

    def test_duplicate_offers_deduplicate(self):
        sp = _span("serve.request", 0, 5, 1)
        records = span_records(sp, trace_id=TID) + span_records(
            sp, trace_id=TID
        )
        assert len(assemble_trace(records)) == 1

    def test_orphan_becomes_root(self):
        records = span_records(
            _span("serve.request", 0, 5, 3, parent=999), trace_id=TID
        )
        roots = assemble_trace(records)
        assert len(roots) == 1

    def test_attribution_partitions_the_root_duration(self):
        ms = 1_000_000
        root = _span("serve.request", 0, 100 * ms, 1)
        par = _span("stellar", 10 * ms, 90 * ms, 2, 1)
        # Two children overlapping in wall-clock: their split must not
        # double-count the overlapped 60ms.
        par.children.append(_span("seed_decisive", 10 * ms, 80 * ms, 3, 2))
        par.children.append(_span("nonseed_extension", 20 * ms, 90 * ms, 4, 2))
        root.children.append(par)
        roots = assemble_trace(span_records(root, trace_id=TID))
        out = critical_path(roots)
        assert out["total_s"] == pytest.approx(0.1)
        assert out["attributed_s"] == pytest.approx(out["total_s"])
        assert out["phases"]["kernel"] == pytest.approx(0.08)
        assert out["phases"]["serve"] == pytest.approx(0.02)

    def test_stellar_phases_inherit_kernel_under_a_request(self, running_example):
        tracer = Tracer()
        with tracer.span("serve.request") as root:
            stellar(running_example)
        out = critical_path(assemble_trace(span_records(root, trace_id=TID)))
        assert "other" not in out["phases"]
        phase_of = {step["name"]: step["phase"] for step in out["steps"]}
        for name in STELLAR_PHASES:
            assert phase_of[name] == "kernel"

    def test_unparented_span_record_links_to_its_tree_parent(self):
        # A span appended by hand carries no parent_span_id.
        root = _span("stellar", 0, 10, 1)
        root.children.append(Span(name="seed_decisive", start_ns=1, end_ns=9))
        (node,) = assemble_trace(span_records(root, trace_id=TID))
        assert [c.span.name for c in node.children] == ["seed_decisive"]


# -- OpenMetrics exemplars ---------------------------------------------------


class TestOpenMetrics:
    def test_negotiation(self):
        om = "application/openmetrics-text; version=1.0.0"
        content_type, render = negotiate_exposition(om)
        assert content_type == OPENMETRICS_CONTENT_TYPE
        assert render is render_openmetrics
        for accept in (None, "", "*/*", "text/plain"):
            content_type, render = negotiate_exposition(accept)
            assert content_type == PROMETHEUS_CONTENT_TYPE
            assert render is render_prometheus

    def test_exemplar_rendered_on_bucket(self):
        hist = registry().histogram("serve.request_seconds")
        hist.observe(0.004)
        hist.observe(0.004, trace_id=TID)
        text = render_openmetrics(registry())
        assert f'# {{trace_id="{TID}"}} 0.004' in text
        assert text.endswith("# EOF\n")

    def test_counter_family_drops_total_suffix(self):
        registry().counter("serve.admitted").inc()
        text = render_openmetrics(registry())
        assert "# TYPE repro_serve_admitted counter" in text
        assert "repro_serve_admitted_total 1" in text

    def test_both_formats_pinned_byte_for_byte(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        monkeypatch.setattr("repro.obs.metrics.time.time", lambda: 1.7e9 + 0.25)
        reg = MetricsRegistry()
        reg.counter("serve.admitted").inc(3)
        reg.gauge("slo.burn_rate").set(0.5)
        reg.info("build.version").set("1.0.0")
        hist = reg.histogram("serve.request_seconds", bounds=(0.001, 0.01, 0.1))
        hist.observe(0.0004)
        hist.observe(0.004, trace_id=TID)
        hist.observe(0.5)
        body = (
            "# TYPE repro_slo_burn_rate gauge\n"
            "repro_slo_burn_rate 0.5\n"
            "# TYPE repro_build_version gauge\n"
            'repro_build_version{value="1.0.0"} 1\n'
            "# TYPE repro_serve_request_seconds histogram\n"
            'repro_serve_request_seconds_bucket{le="0.001"} 1\n'
            'repro_serve_request_seconds_bucket{le="0.01"} 2{exemplar}\n'
            'repro_serve_request_seconds_bucket{le="0.1"} 2\n'
            'repro_serve_request_seconds_bucket{le="+Inf"} 3\n'
            "repro_serve_request_seconds_sum 0.5044\n"
            "repro_serve_request_seconds_count 3\n"
        )
        assert render_prometheus(reg) == (
            "# TYPE repro_serve_admitted_total counter\n"
            "repro_serve_admitted_total 3\n"
            + body.replace("{exemplar}", "")
        )
        exemplar = f' # {{trace_id="{TID}"}} 0.004 1700000000.250'
        assert render_openmetrics(reg) == (
            "# TYPE repro_serve_admitted counter\n"
            "repro_serve_admitted_total 3\n"
            + body.replace("{exemplar}", exemplar)
            + "# EOF\n"
        )
        assert render_prometheus(MetricsRegistry()) == ""
        assert render_openmetrics(MetricsRegistry()) == "# EOF\n"

    def test_legacy_exposition_has_no_exemplars(self):
        hist = registry().histogram("serve.request_seconds")
        hist.observe(0.004, trace_id=TID)
        text = render_prometheus(registry())
        assert "trace_id" not in text
        assert "# EOF" not in text


# -- slow-query log correlation ----------------------------------------------


class TestSlowlogTraceIds:
    def test_entries_carry_trace_id_and_endpoint(self, service):
        log = configure_slow_query_log(capacity=16)
        try:
            service.handle_http(
                "GET", "/v1/skyline", {"subspace": ["price"]}, {},
                {"traceparent": f"00-{TID}-00f067aa0ba902b7-01"},
            )
            assert slow_query_log() is log
            entries = log.entries()
            assert entries
            worst = entries[0]
            assert worst.trace_id == TID
            assert worst.attributes["endpoint"] == "/v1/skyline"
            rendered = log.render()
            assert f"trace_id={TID}" in rendered
        finally:
            disable_slow_query_log()


# -- loadtest report: slowest requests ---------------------------------------


def _record(kind, seconds, trace_id, **kw):
    return RequestRecord(
        kind=kind,
        status=kw.pop("status", 200),
        seconds=seconds,
        service_seconds=seconds,
        cube_version=kw.pop("cube_version", "demo@v1"),
        trace_id=trace_id,
        **kw,
    )


class TestReportSlowest:
    def test_worst_first_with_trace_ids(self):
        records = [
            _record("skyline", 0.001 * i, f"{i:032x}") for i in range(1, 8)
        ]
        top = slowest(records)
        assert len(top) == 5
        assert [t["seconds"] for t in top] == sorted(
            (t["seconds"] for t in top), reverse=True
        )
        assert top[0]["trace_id"] == f"{7:032x}"
        assert top[0]["cube_version"] == "demo@v1"

    def test_summarize_renders_slow_lines(self):
        config = LoadtestConfig(duration_seconds=1.0, rate_rps=1.0)
        result = LoadtestResult(
            config=config,
            records=[_record("skyline", 0.25, "c" * 32)],
            slo_report=SLOEngine(default_serving_slos()).report(),
            wall_seconds=1.0,
            scheduled=1,
            max_lag_seconds=0.0,
        )
        report = summarize(result)
        assert report.endpoints[0].slowest[0]["trace_id"] == "c" * 32
        text = report.render()
        assert "trace=" + "c" * 32 in text
        assert "version=demo@v1" in text
        payload = report.to_dict()
        assert payload["endpoints"][0]["slowest"][0]["trace_id"] == "c" * 32


# -- repro trace CLI ---------------------------------------------------------


class TestTraceFile:
    def test_ndjson_trace_file_reassembles_the_traced_trees(
        self, running_example, tmp_path, monkeypatch
    ):
        import repro.obs

        written = []
        real_write_trace = repro.obs.write_trace

        def spy(path, spans):
            written.append(list(spans))
            return real_write_trace(path, spans)

        monkeypatch.setattr(repro.obs, "write_trace", spy)
        csv = tmp_path / "d.csv"
        save_csv(running_example, csv)
        path = tmp_path / "x.ndjson"
        assert main(["run", "--input", str(csv), "--trace", str(path)]) == 0
        (traced,) = written
        with path.open() as fh:
            records = [json.loads(line) for line in fh]
        roots = [node.span for node in assemble_trace(records)]
        assert roots == traced
        assert {s.name for s in roots[0].walk()} >= set(STELLAR_PHASES)


class TestTraceCLI:
    @pytest.fixture
    def sink_dir(self, tmp_path):
        sink = TraceSink(tmp_path / "traces", keep_probability=1.0)
        ms = 1_000_000
        root = _span(
            "client.request", 0, 20 * ms, 1, endpoint="/v1/skyline"
        )
        serve = _span("serve.request", 2 * ms, 18 * ms, 2, 1)
        serve.children.append(_span("serve.admission.wait", 2 * ms, 3 * ms, 3, 2))
        root.children.append(serve)
        sink("end", root, True)  # a closing client root, as a listener sees it
        return tmp_path / "traces"

    def test_self_hosted_loadtest_writes_both_sources(
        self, tmp_path, flight_routes, capsys
    ):
        csv = tmp_path / "routes.csv"
        save_csv(flight_routes, csv)
        traces = tmp_path / "traces"
        rc = main(
            [
                "loadtest", "--dataset", str(csv), "--duration", "0.5",
                "--rate", "20", "--no-ledger", "--trace-dir", str(traces),
                "--trace-slow-ms", "0",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["trace", "ls", "--trace-dir", str(traces), "--json"]) == 0
        summaries = json.loads(capsys.readouterr().out)
        assert summaries
        assert any(s["sources"] == ["client", "server"] for s in summaries)

    def test_ls(self, sink_dir, capsys):
        assert main(["trace", "ls", "--trace-dir", str(sink_dir)]) == 0
        out = capsys.readouterr().out
        assert TID in out
        assert "/v1/skyline" in out

    def test_show(self, sink_dir, capsys):
        assert (
            main(["trace", "show", TID, "--trace-dir", str(sink_dir)]) == 0
        )
        out = capsys.readouterr().out
        assert "client.request" in out
        assert "serve.admission.wait" in out

    def test_critical_path(self, sink_dir, capsys):
        rc = main(
            ["trace", "critical-path", TID, "--trace-dir", str(sink_dir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "admission" in out
        assert "20.00 ms total" in out

    def test_critical_path_json(self, sink_dir, capsys):
        rc = main(
            [
                "trace",
                "critical-path",
                TID,
                "--trace-dir",
                str(sink_dir),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_s"] == pytest.approx(0.02)
        assert payload["attributed_s"] == pytest.approx(0.02)

    def test_unknown_trace_fails(self, sink_dir, capsys):
        rc = main(
            ["trace", "show", "d" * 32, "--trace-dir", str(sink_dir)]
        )
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_sink_fails(self, tmp_path, capsys):
        rc = main(
            ["trace", "ls", "--trace-dir", str(tmp_path / "nope")]
        )
        assert rc == 2
        assert "no trace sink" in capsys.readouterr().err

    def test_id_required_for_show(self, sink_dir, capsys):
        rc = main(["trace", "show", "--trace-dir", str(sink_dir)])
        assert rc == 2
        assert "requires a trace id" in capsys.readouterr().err
