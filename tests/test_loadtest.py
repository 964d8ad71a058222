"""Tests for the open-loop load harness (repro.loadtest).

Covers the zipfian workload generator (determinism, skew, coverage), the
exact percentile and capacity-model math, the ledger-entry orientation
(higher is worse), the soak-mode consistency oracle, the end-to-end run
against an in-process server (with churn and hot reloads), and the CLI --
including the ``bench diff --only '*_p99_s'`` regression gate the CI job
relies on.
"""

import json
import random
import threading

import pytest

from repro.bench.ledger import LedgerEntry, append_entry, load_entries
from repro.loadtest import (
    ConsistencyOracle,
    LoadtestConfig,
    RequestRecord,
    WorkloadMix,
    fit_capacity,
    percentile,
    report_entry,
    run_loadtest,
    summarize,
    zipf_weights,
)
from repro.loadtest.runner import _Runner
from repro.serve import CubeService, SnapshotStore, start_server


@pytest.fixture
def served(tmp_path, flight_routes):
    """An in-process server with an empty store the harness publishes to."""
    store = SnapshotStore(tmp_path / "snapshots")
    service = CubeService(
        store, default_snapshot="loadtest", reload_interval=0.05
    )
    with start_server(service) as server:
        yield server.url, service


@pytest.fixture
def routes_csv(tmp_path, flight_routes):
    from repro.data import save_csv

    path = tmp_path / "routes.csv"
    save_csv(flight_routes, path)
    return path


class TestZipf:
    def test_weights_normalized_and_decreasing(self):
        weights = zipf_weights(10, 1.1)
        assert abs(sum(weights) - 1.0) < 1e-12
        assert weights == sorted(weights, reverse=True)
        assert weights[0] > 3 * weights[9]

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, 0.0)


class TestWorkloadMix:
    def test_deterministic_sequence(self, flight_routes):
        mix = WorkloadMix(flight_routes)
        first = [mix.generate(random.Random(42)) for _ in range(1)]
        a = random.Random(7)
        b = random.Random(7)
        seq_a = [mix.generate(a) for _ in range(50)]
        seq_b = [mix.generate(b) for _ in range(50)]
        assert seq_a == seq_b
        assert first  # generator produced something

    def test_kind_mix_is_skyline_heavy(self, flight_routes):
        mix = WorkloadMix(flight_routes)
        rng = random.Random(0)
        kinds = [mix.generate(rng).kind for _ in range(2000)]
        counts = {k: kinds.count(k) for k in set(kinds)}
        assert max(counts, key=counts.get) == "skyline"
        # Every configured kind shows up in a long enough stream.
        assert set(counts) == set(mix.kinds)

    def test_subspace_popularity_is_skewed(self, flight_routes):
        mix = WorkloadMix(flight_routes)
        rng = random.Random(1)
        subspaces = [
            request.params["subspace"]
            for request in (mix.generate(rng) for _ in range(3000))
            if "subspace" in request.params
        ]
        counts = sorted(
            (subspaces.count(s) for s in set(subspaces)), reverse=True
        )
        # zipf(1.1) over 7 subspaces: the hottest gets several times the
        # traffic of the coldest.
        assert counts[0] > 3 * counts[-1]

    def test_requests_are_valid_for_the_service(self, flight_routes):
        mix = WorkloadMix(flight_routes)
        rng = random.Random(2)
        for _ in range(200):
            request = mix.generate(rng)
            if "subspace" in request.params:
                # parses back to a non-empty mask
                assert flight_routes.parse_subspace(request.params["subspace"])
            if "label" in request.params:
                assert request.params["label"] in flight_routes.labels
            if "k" in request.params:
                assert 1 <= int(request.params["k"]) <= 5

    def test_churn_rows_stay_in_range(self, flight_routes):
        mix = WorkloadMix(flight_routes)
        rng = random.Random(3)
        lo = flight_routes.values.min(axis=0)
        hi = flight_routes.values.max(axis=0)
        row, label = mix.churn_row(rng, 7)
        assert label == "LT-7"
        assert all(lo[d] <= row[d] <= hi[d] for d in range(len(row)))


class TestPercentile:
    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.95) == 95.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_and_validation(self):
        import math

        assert math.isnan(percentile([], 0.5))
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


def _record(kind="skyline", status=200, seconds=0.01, **kw) -> RequestRecord:
    kw.setdefault("service_seconds", seconds)
    return RequestRecord(kind=kind, status=status, seconds=seconds, **kw)


class TestCapacityModel:
    def test_fit_matches_formula(self):
        records = [
            _record(cached=True, service_seconds=0.001, seconds=0.001)
            for _ in range(50)
        ] + [
            _record(cached=False, service_seconds=0.009, seconds=0.009)
            for _ in range(50)
        ]
        model = fit_capacity(records, n_groups=2000)
        assert model is not None
        assert model.hit_ratio == 0.5
        assert model.t_hit_s == pytest.approx(0.001)
        assert model.t_miss_s == pytest.approx(0.009)
        # 1 / (0.5*1ms + 0.5*9ms) = 200 req/s per worker
        assert model.per_worker_rps == pytest.approx(200.0)
        assert model.sustainable_rps(8) == pytest.approx(1600.0)
        assert model.t_miss_per_1k_groups_s == pytest.approx(0.0045)

    def test_all_misses_collapses_to_single_class(self):
        records = [
            _record(cached=False, service_seconds=0.004, seconds=0.004)
            for _ in range(10)
        ]
        model = fit_capacity(records)
        assert model.hit_ratio == 0.0
        assert model.per_worker_rps == pytest.approx(250.0)

    def test_no_successes_gives_none(self):
        assert fit_capacity([]) is None
        assert fit_capacity([_record(status=503)]) is None


class TestOracle:
    def test_rebuilds_mutated_generations(self, flight_routes):
        oracle = ConsistencyOracle(flight_routes)
        oracle.register_base("routes@v000001")
        oracle.record_mutation(
            "routes@v000001+1", ("insert", [100.0, 5.0, 0.0], "CHEAP")
        )
        oracle.record_mutation("routes@v000001+2", ("delete", "CHEAP"))
        assert oracle.expected_skyline("routes@v000001+1", "price,stops") == [
            "CHEAP"
        ]
        # after the delete the original skyline is back
        assert oracle.expected_skyline("routes@v000001+2", "price,stops") == [
            "BUDGET-LHR",
            "DIRECT",
            "TK-YVR",
        ]
        assert oracle.knows("routes@v000001+2")
        assert not oracle.knows("routes@v000099")

    def test_out_of_order_ack_evicts_base(self, flight_routes):
        oracle = ConsistencyOracle(flight_routes)
        oracle.register_base("routes@v000001")
        # ack claims +5 but only one op was recorded: external mutator
        oracle.record_mutation(
            "routes@v000001+5", ("insert", [1.0, 1.0, 1.0], "X")
        )
        assert not oracle.knows("routes@v000001")

    def test_unknown_base_ignored(self, flight_routes):
        oracle = ConsistencyOracle(flight_routes)
        oracle.record_mutation("other@v000003+1", ("delete", "P1"))
        assert not oracle.knows("other@v000003")

    def test_read_inconsistency_detection(self, flight_routes):
        runner = _Runner(
            "http://unused.invalid", flight_routes, LoadtestConfig(), None
        )
        runner._note_skyline("v@1", "price", ("A", "B"))
        runner._note_skyline("v@1", "price", ("A", "B"))
        assert runner.read_inconsistencies == []
        runner._note_skyline("v@1", "price", ("A",))
        assert len(runner.read_inconsistencies) == 1
        assert runner.read_inconsistencies[0]["cube_version"] == "v@1"


class TestLedgerEntry:
    def _report(self, records):
        result = _fake_result(records)
        return summarize(result)

    def test_metrics_are_higher_is_worse(self):
        records = [
            _record(cached=True, seconds=0.002, service_seconds=0.001)
            for _ in range(80)
        ] + [_record(status=503, shed_reason="queue_full") for _ in range(20)]
        report = self._report(records)
        entry = report_entry(report, scale="smoke")
        assert entry.figure == "serve"
        assert entry.metrics["shed_rate"] == pytest.approx(0.2)
        # cache-*miss* ratio so that a worse cache raises the metric
        assert entry.metrics["cache_miss_ratio"] == pytest.approx(0.0)
        assert entry.metrics["error_rate"] == 0
        assert entry.metrics["consistency_violations"] == 0
        assert "skyline_p99_s" in entry.metrics
        assert entry.workload["slo_ok"] is True

    def test_entry_round_trips_through_ledger(self, tmp_path):
        report = self._report([_record() for _ in range(10)])
        path = tmp_path / "BENCH_serve.json"
        append_entry(path, report_entry(report))
        (loaded,) = load_entries(path)
        assert loaded.figure == "serve"
        assert loaded.metrics["consistency_violations"] == 0
        assert isinstance(loaded.metrics["consistency_violations"], int)


def _fake_result(records):
    """A LoadtestResult around canned records (no server involved)."""
    from repro.loadtest.runner import LoadtestResult
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SLOEngine, default_serving_slos

    reg = MetricsRegistry()
    for r in records:
        reg.histogram(f"serve.request.{r.kind}.seconds").observe(r.seconds)
        reg.counter("serve.shed" if r.shed else "serve.admitted").inc()
    engine = SLOEngine(
        default_serving_slos(kinds=("skyline",), availability_target=0.5),
        reg=reg,
    )
    return LoadtestResult(
        config=LoadtestConfig(duration_seconds=1.0, rate_rps=100.0),
        records=list(records),
        slo_report=engine.sample(),
        wall_seconds=1.0,
        scheduled=len(records),
        max_lag_seconds=0.0,
        consistency={"violations": [], "read_inconsistencies": []},
    )


class TestEndToEnd:
    def test_soak_run_with_churn_and_reload(self, served, flight_routes, routes_csv):
        url, _service = served
        config = LoadtestConfig(
            duration_seconds=1.5,
            rate_rps=80.0,
            seed=11,
            churn_interval=0.15,
            publish_interval=0.6,
            snapshot="loadtest",
        )
        result = run_loadtest(
            url, flight_routes, config, csv_text=routes_csv.read_text()
        )
        report = summarize(result)
        assert report.completed > 40
        assert report.error_rate == 0.0
        assert report.cache_hit_ratio > 0.0
        # churn actually happened and survived hot reloads
        assert result.churn["inserts"] >= 1
        assert result.churn["publishes"] >= 2  # initial + periodic
        assert result.consistency["churn_errors"] == []
        # the oracle verified real observations and found no violations
        assert result.consistency["verified"] > 0
        assert result.consistency["violations"] == []
        assert result.consistency["read_inconsistencies"] == []
        assert report.ok
        # capacity model fitted from live traffic
        assert report.capacity is not None
        assert report.capacity.per_worker_rps > 0
        # client-side slo gauges were exported into the private registry
        assert result.registry.gauge("slo.availability.met").value == 1.0

    def test_read_only_run_against_external_server(
        self, served, flight_routes, routes_csv
    ):
        url, service = served
        # Someone else published; the harness only reads.
        service.publish_csv("loadtest", routes_csv.read_text())
        config = LoadtestConfig(duration_seconds=0.8, rate_rps=60.0, seed=3)
        result = run_loadtest(url, flight_routes, config, csv_text=None)
        report = summarize(result)
        assert report.completed > 20
        assert report.error_rate == 0.0
        # no oracle ownership: observations audit as unverified, never as
        # violations
        assert result.consistency["verified"] == 0
        assert result.consistency["violations"] == []
        assert result.consistency["unverified_versions"]


class TestLoadtestCLI:
    def test_parser_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "loadtest",
                "--dataset",
                "d.csv",
                "--duration",
                "5",
                "--rate",
                "120",
                "--churn-interval",
                "0.5",
                "--fail-on-slo",
            ]
        )
        assert args.command == "loadtest"
        assert args.duration == 5.0
        assert args.rate == 120.0
        assert args.churn_interval == 0.5
        assert args.fail_on_slo

    def test_cli_self_hosted_run(self, tmp_path, routes_csv, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "loadtest",
                "--dataset",
                str(routes_csv),
                "--duration",
                "1",
                "--rate",
                "40",
                "--churn-interval",
                "0.3",
                "--report",
                str(report_path),
                "--ledger-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["completed"] > 10
        assert payload["capacity"]["per_worker_rps"] > 0
        (entry,) = load_entries(tmp_path / "BENCH_serve.json")
        assert "overall_p99_s" in entry.metrics

    def test_cli_fail_on_slo(self, tmp_path, routes_csv):
        from repro.cli import main

        # A threshold below every histogram bucket makes every request
        # "bad"; --fail-on-slo must turn that into a non-zero exit.
        rc = main(
            [
                "loadtest",
                "--dataset",
                str(routes_csv),
                "--duration",
                "0.5",
                "--rate",
                "30",
                "--slo-threshold-ms",
                "0.000001",
                "--fail-on-slo",
                "--no-ledger",
            ]
        )
        assert rc == 1


class TestRegressionGate:
    """The CI contract: bench diff --only '*_p99_s' trips on a p99 jump."""

    def _ledger(self, tmp_path, baseline_p99, candidate_p99):
        path = tmp_path / "BENCH_serve.json"
        for i, p99 in enumerate((baseline_p99, candidate_p99)):
            append_entry(
                path,
                LedgerEntry(
                    figure="serve",
                    scale="smoke",
                    created=1000.0 + i,
                    metrics={
                        "overall_p99_s": p99,
                        "skyline_p99_s": p99,
                        "error_rate": 0.0,
                        "shed_rate": 0.5,  # noisy companion, not gated
                        "consistency_violations": 0,
                    },
                ),
            )
        return path

    def test_injected_p99_regression_fails_gate(self, tmp_path, capsys):
        from repro.cli import main

        path = self._ledger(tmp_path, 0.010, 0.100)  # 10x p99 jump
        rc = main(
            [
                "bench",
                "diff",
                "--ledger",
                str(path),
                "--only",
                "*_p99_s",
                "--threshold",
                "3.0",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "shed_rate" not in out  # filtered out of the gate

    def test_steady_p99_passes_gate(self, tmp_path):
        from repro.cli import main

        path = self._ledger(tmp_path, 0.010, 0.012)
        rc = main(
            [
                "bench",
                "diff",
                "--ledger",
                str(path),
                "--only",
                "*_p99_s",
                "--threshold",
                "3.0",
            ]
        )
        assert rc == 0

    def test_consistency_violations_gate_from_zero(self, tmp_path):
        """A zero baseline with any violation trips (infinite ratio)."""
        from repro.cli import main

        path = tmp_path / "BENCH_serve.json"
        for violations in (0, 1):
            append_entry(
                path,
                LedgerEntry(
                    figure="serve",
                    scale="smoke",
                    created=1000.0 + violations,
                    metrics={"consistency_violations": violations},
                ),
            )
        rc = main(
            [
                "bench",
                "diff",
                "--ledger",
                str(path),
                "--only",
                "consistency_violations",
                "--threshold",
                "3.0",
            ]
        )
        assert rc == 1


class TestOpenLoopBehavior:
    def test_arrivals_do_not_wait_for_completions(self, flight_routes):
        """A stalled server must not thin the arrival schedule."""
        import http.server
        import time as _time

        hold = threading.Event()

        class SlowHandler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                hold.wait(timeout=5)
                body = b'{"result": [], "cached": false, "cube_version": ""}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), SlowHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            config = LoadtestConfig(
                duration_seconds=0.6, rate_rps=50.0, seed=5, workers=64
            )
            t0 = _time.perf_counter()
            runner_result = [None]

            def run():
                runner_result[0] = run_loadtest(url, flight_routes, config)

            load_thread = threading.Thread(target=run)
            load_thread.start()
            _time.sleep(0.8)
            hold.set()
            load_thread.join(timeout=30)
            result = runner_result[0]
            assert result is not None
            # ~30 arrivals were scheduled although the server stalled the
            # whole run: open loop, not closed loop.
            assert result.scheduled >= 15
            # the stall is visible in the open-loop latency
            report = summarize(result)
            stalled = [r for r in result.records if r.seconds > 0.15]
            assert stalled, "stall did not surface in open-loop latency"
            assert report.overall_p99_s > 0.15
            assert _time.perf_counter() - t0 < 25
        finally:
            server.shutdown()
            server.server_close()
