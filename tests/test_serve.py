"""Tests for the query-serving subsystem (repro.serve).

Covers the snapshot store (atomic publish, versioning, activation), the
version-keyed result cache (LRU, TTL, invalidation), admission control
(bounded queue, deadline shedding), the service layer (cache hits,
maintenance invalidation, hot swap), the HTTP façade, and -- most
importantly -- concurrent serving: responses must never mix cube versions
while mutations and snapshot swaps land under load.
"""

import json
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from urllib.error import HTTPError

import pytest

from repro.cube import CompressedSkylineCube
from repro.serve import (
    AdmissionController,
    CubeService,
    Deadline,
    OverloadedError,
    ResultCache,
    SnapshotStore,
    UnknownSnapshotError,
    start_server,
)


@pytest.fixture
def store(tmp_path):
    return SnapshotStore(tmp_path / "snapshots")


@pytest.fixture
def published(store, flight_routes):
    cube = CompressedSkylineCube.build(flight_routes)
    info = store.publish("routes", flight_routes, cube)
    return store, flight_routes, cube, info


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except HTTPError as exc:
        return exc.code, json.loads(exc.read())


def http_post(url, body):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestSnapshotStore:
    def test_publish_load_round_trip(self, published):
        store, dataset, cube, info = published
        assert info.version == "v000001"
        assert store.current_version("routes") == "v000001"
        loaded_dataset, loaded_cube, loaded_info = store.load("routes")
        assert loaded_dataset.labels == dataset.labels
        assert [g.key for g in loaded_cube.groups] == [
            g.key for g in cube.groups
        ]
        assert loaded_info.n_groups == len(cube.groups)

    def test_versions_increment(self, published):
        store, dataset, cube, _ = published
        second = store.publish("routes", dataset, cube)
        assert second.version == "v000002"
        assert [i.version for i in store.versions("routes")] == [
            "v000001",
            "v000002",
        ]
        assert store.current_version("routes") == "v000002"

    def test_publish_without_activate(self, published):
        store, dataset, cube, _ = published
        store.publish("routes", dataset, cube, activate=False)
        assert store.current_version("routes") == "v000001"

    def test_activate_rollback(self, published):
        store, dataset, cube, _ = published
        store.publish("routes", dataset, cube)
        store.activate("routes", "v000001")
        assert store.current_version("routes") == "v000001"

    def test_activate_unknown_version_rejected(self, published):
        store = published[0]
        with pytest.raises(ValueError, match="no version"):
            store.activate("routes", "v000099")

    def test_invalid_names_rejected(self, store):
        for bad in ("../escape", "", "a/b", ".hidden"):
            with pytest.raises(ValueError, match="invalid snapshot name|unknown"):
                store._snapshot_dir(bad)

    def test_no_partial_version_dirs(self, published):
        store = published[0]
        snap_dir = store.root / "routes"
        children = {p.name for p in snap_dir.iterdir()}
        assert children == {"v000001", "CURRENT"}

    def test_names_lists_published(self, published):
        store = published[0]
        assert store.names() == ["routes"]

    def test_load_unknown_version(self, published):
        store = published[0]
        with pytest.raises(ValueError, match="no version"):
            store.load("routes", "v000042")

    def test_mismatched_cube_rejected(self, store, flight_routes, example1):
        cube = CompressedSkylineCube.build(example1)
        with pytest.raises(ValueError, match="not computed from"):
            store.publish("routes", flight_routes, cube)


class TestResultCache:
    def test_hit_and_miss(self):
        cache = ResultCache(max_entries=4)
        key = ("v1", "skyline", (3,))
        assert cache.get(key) == (None, False)
        cache.put(key, ["A"])
        assert cache.get(key) == (["A"], True)

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("a") == (1, True)
        assert cache.get("b") == (None, False)
        assert cache.get("c") == (3, True)

    def test_ttl_expiry(self):
        now = [0.0]
        cache = ResultCache(max_entries=4, ttl_seconds=10, clock=lambda: now[0])
        cache.put("a", 1)
        assert cache.get("a") == (1, True)
        now[0] = 11.0
        assert cache.get("a") == (None, False)

    def test_invalidate_by_version(self):
        cache = ResultCache(max_entries=8)
        cache.put(("v1", "skyline", (3,)), ["A"])
        cache.put(("v1", "wins-in", ("X", 1)), True)
        cache.put(("v2", "skyline", (3,)), ["B"])
        assert cache.invalidate("v1") == 2
        assert len(cache) == 1
        assert cache.get(("v2", "skyline", (3,))) == (["B"], True)

    def test_invalidate_all(self):
        cache = ResultCache(max_entries=8)
        cache.put(("v1", "skyline", (3,)), ["A"])
        cache.put(("v2", "skyline", (3,)), ["B"])
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_disabled_cache(self):
        cache = ResultCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") == (None, False)

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError, match="ttl_seconds"):
            ResultCache(ttl_seconds=0)


class TestAdmissionController:
    def test_admit_and_release(self):
        controller = AdmissionController(max_concurrency=2, queue_limit=2)
        with controller.admit():
            assert controller.inflight == 1
        assert controller.inflight == 0

    def test_queue_full_sheds_immediately(self):
        controller = AdmissionController(max_concurrency=1, queue_limit=0)
        with controller.admit():
            with pytest.raises(OverloadedError) as exc:
                with controller.admit():
                    pass
        shed = exc.value.overloaded
        assert shed.reason == "queue_full"
        assert shed.max_concurrency == 1
        assert shed.to_dict()["error"] == "overloaded"

    def test_queued_request_times_out(self):
        controller = AdmissionController(max_concurrency=1, queue_limit=4)
        with controller.admit():
            t0 = time.monotonic()
            with pytest.raises(OverloadedError) as exc:
                with controller.admit(Deadline.after_ms(50)):
                    pass
            assert exc.value.overloaded.reason == "timeout"
            assert time.monotonic() - t0 < 5.0

    def test_queued_request_proceeds_when_slot_frees(self):
        controller = AdmissionController(max_concurrency=1, queue_limit=4)
        entered = threading.Event()
        release = threading.Event()
        results = []

        def holder():
            with controller.admit():
                entered.set()
                release.wait(timeout=10)

        def waiter():
            with controller.admit(Deadline.after_ms(10_000)):
                results.append("ran")

        hold = threading.Thread(target=holder)
        hold.start()
        entered.wait(timeout=10)
        wait = threading.Thread(target=waiter)
        wait.start()
        time.sleep(0.05)  # let the waiter queue up
        release.set()
        hold.join(timeout=10)
        wait.join(timeout=10)
        assert results == ["ran"]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrency=0)
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=-1)
        with pytest.raises(ValueError):
            Deadline(0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="finite"):
            Deadline(budget)
        with pytest.raises(ValueError, match="finite"):
            AdmissionController(default_deadline_ms=budget)


class TestCubeService:
    @pytest.fixture
    def service(self, published):
        store = published[0]
        return CubeService(store, reload_interval=0)

    def test_query_envelope(self, service):
        out = service.query("skyline", {"subspace": "price,stops"})
        assert out["snapshot"] == "routes"
        assert out["cube_version"] == "routes@v000001"
        assert out["result"] == ["BUDGET-LHR", "DIRECT", "TK-YVR"]
        assert out["cached"] is False

    def test_repeat_query_served_from_cache(self, service):
        first = service.query("skyline", {"subspace": "price,stops"})
        # A different spelling of the same subspace hits the same entry.
        second = service.query("skyline", {"subspace": "stops , price"})
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_unknown_kind_rejected(self, service):
        with pytest.raises(ValueError, match="unknown query kind"):
            service.query("nope", {})

    def test_unknown_snapshot(self, service):
        with pytest.raises(UnknownSnapshotError):
            service.query("skyline", {"subspace": "price"}, snapshot="nope")

    def test_maintenance_insert_invalidates_cache(self, service):
        before = service.query("skyline", {"subspace": "price,stops"})
        assert before["result"] == ["BUDGET-LHR", "DIRECT", "TK-YVR"]
        out = service.maintenance_insert([100.0, 5.0, 0.0], label="CHEAP")
        assert out["cube_version"] == "routes@v000001+1"
        after = service.query("skyline", {"subspace": "price,stops"})
        assert after["cube_version"] == "routes@v000001+1"
        assert after["cached"] is False
        assert "CHEAP" in after["result"]

    def test_maintenance_delete(self, service):
        out = service.maintenance_delete("SLOW-EXPENSIVE")
        assert out["cube_version"] == "routes@v000001+1"
        assert out["n_objects"] == 7
        with pytest.raises(ValueError, match="unknown object label"):
            service.query("where-wins", {"label": "SLOW-EXPENSIVE"})

    def test_hot_swap_on_new_version(self, service, published):
        store, dataset, cube, _ = published
        v1 = service.query("skyline", {"subspace": "price,stops"})
        assert v1["cube_version"] == "routes@v000001"
        store.publish("routes", dataset, cube)  # activates v000002
        v2 = service.query("skyline", {"subspace": "price,stops"})
        assert v2["cube_version"] == "routes@v000002"
        assert v2["cached"] is False  # old generation's entries are dead

    def test_mutations_survive_reload_checks(self, service):
        service.maintenance_insert([100.0, 5.0, 0.0], label="CHEAP")
        # reload_interval=0 checks CURRENT on every request; the base
        # version is unchanged so the mutation must not be dropped.
        out = service.query("skyline", {"subspace": "price,stops"})
        assert out["cube_version"] == "routes@v000001+1"
        assert "CHEAP" in out["result"]

    def test_explain_bypasses_cache(self, service):
        first = service.query(
            "explain", {"kind": "skyline", "args": ["price,stops"]}
        )
        second = service.query(
            "explain", {"kind": "skyline", "args": ["price,stops"]}
        )
        assert first["cached"] is False and second["cached"] is False
        assert "EXPLAIN q1.skyline" in second["result"]["rendered"]

    def test_deadline_exceeded_maps_to_504(self, service):
        status, payload, _ = service.handle_http(
            "GET",
            "/v1/skyline",
            {"subspace": ["price"], "deadline_ms": ["0.001"]},
            {},
        )
        assert status == 504
        assert payload["error"] == "deadline_exceeded"

    @pytest.mark.parametrize("path", ["/v1/skyline", "/v1/top-frequent"])
    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    def test_non_finite_deadline_is_bad_request(self, service, path, budget):
        status, payload, _ = service.handle_http(
            "GET", path, {"subspace": ["price"], "deadline_ms": [budget]}, {}
        )
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "finite" in payload["detail"]

    def test_http_error_mapping(self, service):
        status, payload, _ = service.handle_http(
            "GET", "/v1/skyline", {"subspace": ["bogus,dims"]}, {}
        )
        assert status == 400
        status, payload, _ = service.handle_http(
            "GET", "/v1/nope", {}, {}
        )
        assert status == 404
        status, payload, _ = service.handle_http("GET", "/healthz", {}, {})
        assert status == 200 and payload["status"] == "ok"

    def test_shed_maps_to_503_with_retry_after(self, published):
        store = published[0]
        service = CubeService(
            store,
            admission=AdmissionController(max_concurrency=1, queue_limit=0),
            reload_interval=0,
        )
        with service.admission.admit():
            status, payload, headers = service.handle_http(
                "GET", "/v1/skyline", {"subspace": ["price"]}, {}
            )
        assert status == 503
        assert payload["reason"] == "queue_full"
        assert "Retry-After" in headers

    def test_snapshots_overview(self, service, published):
        store, dataset, cube, _ = published
        store.publish("routes", dataset, cube, activate=False)
        overview = service.snapshots_overview()
        (entry,) = overview["snapshots"]
        assert entry["name"] == "routes"
        assert entry["current"] == "v000001"
        actives = [v["active"] for v in entry["versions"]]
        assert actives == [True, False]

    def test_preload(self, service):
        assert service.preload() == ["routes"]
        health = service.health()
        assert set(health["snapshots"]) == {"routes"}
        assert health["snapshots"]["routes"]["cube_version"] == "routes@v000001"

    def test_healthz_reports_staleness(self, service):
        service.query("skyline", {"subspace": "price"})
        entry = service.health()["snapshots"]["routes"]
        assert entry["cube_version"] == "routes@v000001"
        assert entry["base_version"] == "v000001"
        assert entry["mutations"] == 0
        assert 0 <= entry["staleness_seconds"] < 60
        assert 0 <= entry["checked_age_seconds"] < 60

    def test_healthz_staleness_resets_on_mutation(self, service):
        service.query("skyline", {"subspace": "price"})
        time.sleep(0.05)
        before = service.health()["snapshots"]["routes"]["staleness_seconds"]
        service.maintenance_insert([100.0, 5.0, 0.0], label="CHEAP")
        entry = service.health()["snapshots"]["routes"]
        assert entry["mutations"] == 1
        assert entry["staleness_seconds"] < before

    def test_per_endpoint_latency_histograms(self, service):
        from repro.obs import registry

        hist = registry().histogram("serve.request.skyline.seconds")
        why_not = registry().histogram("serve.request.why-not.seconds")
        before, before_why = hist.count, why_not.count
        service.query("skyline", {"subspace": "price"})
        service.query("skyline", {"subspace": "price,stops"})
        service.query("why-not", {"label": "SLOW-EXPENSIVE", "subspace": "price"})
        assert hist.count == before + 2
        assert why_not.count == before_why + 1
        gauge = registry().gauge("serve.deadline.last_remaining_seconds")
        assert gauge.value > 0  # default deadline leaves headroom


class TestOverloadShedding:
    def test_shed_accounting_matches_responses(self, published):
        """Sustained overload: typed shed counters agree with HTTP codes.

        With one slot held and a queue of 2, a burst of probes must split
        into queue-full sheds (immediate 503) and queued-then-timed-out
        sheds (503 after the deadline) -- and the `serve.shed.*` counters
        plus the queue-depth gauge must account for every one of them.
        """
        from repro.obs import registry

        store = published[0]
        service = CubeService(
            store,
            admission=AdmissionController(
                max_concurrency=1,
                queue_limit=2,
                default_deadline_ms=200,
            ),
            reload_interval=0,
        )
        service.preload()
        reg = registry()
        shed_total = reg.counter("serve.shed")
        shed_queue_full = reg.counter("serve.shed.queue_full")
        shed_timeout = reg.counter("serve.shed.timeout")
        before = (
            shed_total.value,
            shed_queue_full.value,
            shed_timeout.value,
        )

        entered = threading.Event()
        release = threading.Event()

        def holder():
            with service.admission.admit(Deadline.after_ms(30_000)):
                entered.set()
                release.wait(timeout=30)

        hold = threading.Thread(target=holder)
        hold.start()
        assert entered.wait(timeout=10)

        statuses = []
        lock = threading.Lock()

        def probe():
            status, payload, _ = service.handle_http(
                "GET", "/v1/skyline", {"subspace": ["price"]}, {}
            )
            with lock:
                statuses.append((status, payload.get("reason")))

        try:
            probes = [threading.Thread(target=probe) for _ in range(6)]
            for t in probes:
                t.start()
            for t in probes:
                t.join(timeout=30)
        finally:
            release.set()
            hold.join(timeout=30)

        assert len(statuses) == 6
        observed_queue_full = sum(
            1 for s, r in statuses if s == 503 and r == "queue_full"
        )
        observed_timeout = sum(
            1 for s, r in statuses if s == 503 and r == "timeout"
        )
        # The slot never freed, so every probe was shed one way or the
        # other; the queue only holds 2, so most shed immediately.
        assert observed_queue_full + observed_timeout == 6
        assert observed_queue_full >= 4
        # Counter deltas match the observed responses exactly.
        assert shed_total.value - before[0] == 6
        assert shed_queue_full.value - before[1] == observed_queue_full
        assert shed_timeout.value - before[2] == observed_timeout
        # Steady state restored: nothing queued or in flight.
        assert service.admission.waiting == 0
        assert reg.gauge("serve.queue.depth").value == 0
        assert service.admission.inflight == 0


class TestHTTPServer:
    def test_full_api_over_http(self, published):
        store = published[0]
        service = CubeService(store, reload_interval=0)
        with start_server(service) as server:
            status, body = http_get(
                f"{server.url}/v1/skyline?subspace=price,stops"
            )
            assert status == 200
            assert body["result"] == ["BUDGET-LHR", "DIRECT", "TK-YVR"]
            status, body = http_get(
                f"{server.url}/v1/skyline?subspace=price,stops"
            )
            assert body["cached"] is True
            status, body = http_post(
                f"{server.url}/v1/maintenance/insert",
                {"row": [100.0, 5.0, 0.0], "label": "CHEAP"},
            )
            assert status == 200
            assert body["cube_version"] == "routes@v000001+1"
            status, body = http_get(
                f"{server.url}/v1/skyline?subspace=price,stops"
            )
            assert "CHEAP" in body["result"]
            assert body["cube_version"] == "routes@v000001+1"
            status, body = http_get(f"{server.url}/v1/snapshots")
            assert status == 200
            with urllib.request.urlopen(
                f"{server.url}/metrics", timeout=10
            ) as response:
                scrape = response.read().decode()
            assert "repro_serve_requests_total" in scrape
            assert "repro_serve_cache_hits_total" in scrape

    def test_publish_and_activate_over_http(self, published, tmp_path):
        store, dataset, _, _ = published
        from repro.data import save_csv

        csv_path = tmp_path / "routes.csv"
        save_csv(dataset, csv_path)
        service = CubeService(store, reload_interval=0)
        with start_server(service) as server:
            status, body = http_post(
                f"{server.url}/v1/snapshots/publish",
                {"name": "routes", "csv": csv_path.read_text()},
            )
            assert status == 200
            assert body["version"] == "v000002"
            status, body = http_get(f"{server.url}/v1/skyline?subspace=price")
            assert body["cube_version"] == "routes@v000002"
            status, body = http_post(
                f"{server.url}/v1/snapshots/activate",
                {"name": "routes", "version": "v000001"},
            )
            assert status == 200
            status, body = http_get(f"{server.url}/v1/skyline?subspace=price")
            assert body["cube_version"] == "routes@v000001"

    def test_malformed_post_body(self, published):
        service = CubeService(published[0], reload_interval=0)
        with start_server(service) as server:
            request = urllib.request.Request(
                f"{server.url}/v1/maintenance/insert",
                data=b"not json {{{",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(HTTPError) as exc:
                urllib.request.urlopen(request, timeout=10)
            assert exc.value.code == 400


def raw_post(port, content_length, body=b""):
    """POST over a bare socket with a hand-set Content-Length header."""
    conn = socket.create_connection(("127.0.0.1", port), timeout=10)
    conn.sendall(
        b"POST /v1/maintenance/insert HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        + f"Content-Length: {content_length}\r\n\r\n".encode()
        + body
    )
    return conn


def read_response(conn):
    """Status code and JSON body of the response, read to EOF."""
    chunks = []
    while chunk := conn.recv(65536):
        chunks.append(chunk)
    conn.close()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestHTTPBodyLimits:
    def test_negative_content_length_rejected(self, published):
        service = CubeService(published[0], reload_interval=0)
        with start_server(service) as server:
            status, body = read_response(raw_post(server.port, -1))
        assert status == 400
        assert body["error"] == "bad_request"
        assert "negative Content-Length" in body["detail"]

    def test_oversized_body_rejected_unread(self, published):
        from repro.serve.app import MAX_BODY_BYTES

        service = CubeService(published[0], reload_interval=0)
        with start_server(service) as server:
            # Only the headers are sent: a reply proves nothing was read.
            status, body = read_response(raw_post(server.port, MAX_BODY_BYTES + 1))
            assert status == 413
            assert body["error"] == "payload_too_large"
            # The server is still healthy afterwards.
            assert http_get(f"{server.url}/healthz")[0] == 200

    def test_stalled_body_times_out(self, published, monkeypatch):
        from repro.serve.app import _ServeHandler

        monkeypatch.setattr(_ServeHandler, "timeout", 0.3)
        service = CubeService(published[0], reload_interval=0)
        with start_server(service) as server:
            conn = raw_post(server.port, 100, body=b'{"row": [1')
            started = time.monotonic()
            # The server drops the connection without a response.
            assert conn.recv(65536) == b""
            assert time.monotonic() - started < 5
            conn.close()
            assert http_get(f"{server.url}/healthz")[0] == 200


class TestListenBacklog:
    def test_connection_burst_queues_without_accept(self):
        """A burst of connects completes even while no thread accepts.

        With the stdlib backlog of 5 the kernel drops the SYNs past the
        sixth, and each client stalls for a 1 s retransmit -- the latency
        spike a starved accept loop showed under load.
        """
        from http.server import BaseHTTPRequestHandler

        from repro.serve.app import _ServeHTTPServer

        server = _ServeHTTPServer(("127.0.0.1", 0), BaseHTTPRequestHandler)
        conns = []
        try:
            for _ in range(64):
                conn = socket.socket()
                conns.append(conn)
                conn.settimeout(0.5)
                conn.connect(server.server_address)
        finally:
            for conn in conns:
                conn.close()
            server.server_close()


class TestConcurrentServing:
    def test_no_mixed_versions_under_mutation_and_swap(self, published):
        """Hammer /v1/skyline while an insert and a hot swap land.

        Every response echoes a cube_version; the result it carries must be
        exactly the skyline of that version -- never a blend.
        """
        store, dataset, cube, _ = published
        service = CubeService(store, reload_interval=0)
        # The three generations this test produces, keyed by version string.
        expected = {
            "routes@v000001": ["BUDGET-LHR", "DIRECT", "TK-YVR"],
            # after inserting CHEAP=(100, 5, 0), it dominates everything
            "routes@v000001+1": ["CHEAP"],
        }
        responses = []
        errors = []
        stop = threading.Event()

        with start_server(service) as server:
            url = f"{server.url}/v1/skyline?subspace=price,stops"

            def hammer():
                while not stop.is_set():
                    try:
                        status, body = http_get(url)
                    except Exception as exc:  # noqa: BLE001 - collect all
                        errors.append(repr(exc))
                        return
                    if status != 200:
                        errors.append(f"status {status}: {body}")
                        return
                    responses.append((body["cube_version"], tuple(body["result"])))

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            time.sleep(0.1)
            status, body = http_post(
                f"{server.url}/v1/maintenance/insert",
                {"row": [100.0, 5.0, 0.0], "label": "CHEAP"},
            )
            assert status == 200
            time.sleep(0.1)
            # Hot swap: publish + activate a fresh version from the
            # original dataset; queries must flip to routes@v000002.
            store.publish("routes", dataset, cube)
            expected["routes@v000002"] = ["BUDGET-LHR", "DIRECT", "TK-YVR"]
            time.sleep(0.1)
            stop.set()
            for t in threads:
                t.join(timeout=30)
            final_status, final_body = http_get(url)

        assert not errors, errors[:5]
        assert responses, "no responses collected"
        seen_versions = {version for version, _ in responses}
        for version, result in responses:
            assert version in expected, f"unexpected version {version}"
            assert list(result) == expected[version], (
                f"version {version} answered {list(result)}, "
                f"expected {expected[version]} -- mixed generations"
            )
        # The swap landed: the final response serves the new base version.
        assert final_body["cube_version"] == "routes@v000002"
        assert final_status == 200
        # Sanity: the workload actually crossed at least one generation.
        assert len(seen_versions) >= 2, seen_versions


class TestServeCLI:
    def test_parser_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--snapshot-dir",
                "snaps",
                "--port",
                "0",
                "--cache-size",
                "64",
                "--max-concurrency",
                "2",
                "--deadline-ms",
                "250",
            ]
        )
        assert args.command == "serve"
        assert args.snapshot_dir == "snaps"
        assert args.cache_size == 64
        assert args.max_concurrency == 2
        assert args.deadline_ms == 250.0

    def test_serve_subprocess_end_to_end(self, tmp_path, flight_routes):
        from repro.data import save_csv

        csv_path = tmp_path / "routes.csv"
        save_csv(flight_routes, csv_path)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--snapshot-dir",
                str(tmp_path / "snaps"),
                "--publish",
                str(csv_path),
                "--snapshot",
                "routes",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
        )
        try:
            url = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving at "):
                    url = line.split()[2]
                    break
            assert url, "server never reported its URL"
            status, body = http_get(f"{url}/v1/skyline?subspace=price,stops")
            assert status == 200
            assert body["result"] == ["BUDGET-LHR", "DIRECT", "TK-YVR"]
            assert body["cube_version"] == "routes@v000001"
            status, body = http_get(f"{url}/healthz")
            assert status == 200
        finally:
            proc.terminate()
            proc.wait(timeout=30)


class TestBinarySnapshotServing:
    """Publish writes a binary sidecar; load prefers mmap, falls back to JSON."""

    def test_publish_writes_binary_sidecar(self, published, tmp_path):
        store, _, _, info = published
        vdir = store.root / "routes" / info.version
        assert (vdir / "cube.bin").is_file()
        # The JSON cube stays alongside for old readers and for fallback.
        assert (vdir / "cube.json.gz").is_file() or (vdir / "cube.json").is_file()

    def test_load_prefers_binary(self, published):
        from repro.obs import registry

        store, dataset, cube, info = published
        binary_loads = registry().counter("serve.store.loaded.binary")
        before = binary_loads.value
        loaded_data, loaded, _ = store.load("routes")
        assert binary_loads.value == before + 1
        assert (loaded_data.values == dataset.values).all()
        assert [g.key for g in loaded.groups] == [g.key for g in cube.groups]

    def test_corrupt_binary_falls_back_to_json(self, published):
        from repro.obs import registry

        store, dataset, cube, info = published
        binary_path = store.root / "routes" / info.version / "cube.bin"
        blob = bytearray(binary_path.read_bytes())
        blob[-1] ^= 0x01
        binary_path.write_bytes(bytes(blob))
        binary_loads = registry().counter("serve.store.loaded.binary")
        before = binary_loads.value
        loaded_data, loaded, _ = store.load("routes")
        assert binary_loads.value == before  # fallback path, not binary
        assert [g.key for g in loaded.groups] == [g.key for g in cube.groups]

    def test_missing_binary_falls_back_to_json(self, published):
        # Pre-binary snapshots have no cube.bin at all; they must still load.
        store, dataset, cube, info = published
        (store.root / "routes" / info.version / "cube.bin").unlink()
        _, loaded, _ = store.load("routes")
        assert [g.key for g in loaded.groups] == [g.key for g in cube.groups]

    def test_activation_latency_observed(self, published):
        from repro.obs import registry

        store = published[0]
        hist = registry().histogram("serve.snapshot.activate.seconds")
        before = hist.count
        service = CubeService(store, reload_interval=0)
        service.query("skyline", {"subspace": "price"})
        assert hist.count == before + 1
        # A repeat query on the same version must not re-activate.
        service.query("skyline", {"subspace": "stops"})
        assert hist.count == before + 1
