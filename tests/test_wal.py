"""Tests for the write-ahead log subsystem (repro.wal).

Covers the segment format (CRC framing, torn-tail detection and
truncation, sequence contiguity), the appender (fsync-per-record,
recovery on open), deterministic replay through the maintenance layer,
LSM-style compaction into a freshly published snapshot version, and the
serving integration: mutations acknowledged by :class:`CubeService` must
survive a process death and replay bit-identically on restart.
"""

import json
import zlib

import pytest

from repro.cube import CompressedSkylineCube, MaintainedCube
from repro.cube.io import cube_fingerprint
from repro.obs.metrics import registry
from repro.serve import CubeService, SnapshotStore
from repro.wal import (
    WalRecord,
    WalWriter,
    apply_records,
    compact_snapshot,
    encode_record,
    read_segment,
    recover_segment,
    retire_segment,
    wal_path,
)


@pytest.fixture
def store(tmp_path):
    return SnapshotStore(tmp_path / "snapshots")


@pytest.fixture
def published(store, flight_routes):
    cube = CompressedSkylineCube.build(flight_routes)
    info = store.publish("routes", flight_routes, cube)
    return store, flight_routes, cube, info


def segment_lines(path):
    return path.read_bytes().splitlines(keepends=True)


class TestFraming:
    def test_encode_read_round_trip(self, tmp_path):
        path = tmp_path / "seg.wal"
        records = [
            WalRecord(seq=1, op="insert", label="X", row=(1.0, 2.0), ts=1.5),
            WalRecord(seq=2, op="delete", label="X", row=None, ts=2.5),
            WalRecord(seq=3, op="insert", label=None, row=(3.0,), ts=3.5),
        ]
        path.write_bytes(b"".join(encode_record(r) for r in records))
        scan = read_segment(path)
        assert scan.records == tuple(records)
        assert not scan.torn
        assert scan.valid_bytes == path.stat().st_size

    def test_missing_segment_scans_empty(self, tmp_path):
        scan = read_segment(tmp_path / "absent.wal")
        assert scan.records == ()
        assert not scan.torn

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = tmp_path / "seg.wal"
        r1 = WalRecord(seq=1, op="insert", label="A", row=(1.0,), ts=0.0)
        r2 = WalRecord(seq=2, op="delete", label="A", row=None, ts=0.0)
        line2 = bytearray(encode_record(r2))
        line2[12] ^= 0x01  # flip a payload byte; CRC no longer matches
        path.write_bytes(encode_record(r1) + bytes(line2))
        scan = read_segment(path)
        assert scan.records == (r1,)
        assert scan.torn

    def test_unterminated_tail_is_torn(self, tmp_path):
        path = tmp_path / "seg.wal"
        r1 = WalRecord(seq=1, op="insert", label="A", row=(1.0,), ts=0.0)
        path.write_bytes(encode_record(r1) + b'deadbeef {"seq":2')
        scan = read_segment(path)
        assert scan.records == (r1,)
        assert scan.torn

    def test_valid_crc_bad_schema_stops_scan(self, tmp_path):
        path = tmp_path / "seg.wal"
        payload = json.dumps({"seq": 1, "op": "truncate"}).encode()
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        path.write_bytes(b"%08x %s\n" % (crc, payload))
        scan = read_segment(path)
        assert scan.records == ()
        assert scan.torn

    def test_sequence_gap_is_torn(self, tmp_path):
        path = tmp_path / "seg.wal"
        r1 = WalRecord(seq=1, op="insert", label="A", row=(1.0,), ts=0.0)
        r3 = WalRecord(seq=3, op="insert", label="B", row=(2.0,), ts=0.0)
        path.write_bytes(encode_record(r1) + encode_record(r3))
        scan = read_segment(path)
        assert scan.records == (r1,)
        assert scan.torn

    def test_recover_truncates_in_place(self, tmp_path):
        path = tmp_path / "seg.wal"
        r1 = WalRecord(seq=1, op="insert", label="A", row=(1.0,), ts=0.0)
        clean = encode_record(r1)
        path.write_bytes(clean + b"garbage tail no newline")
        records = recover_segment(path)
        assert records == (r1,)
        assert path.read_bytes() == clean


class TestWalWriter:
    def test_append_and_read_back(self, tmp_path):
        path = tmp_path / "seg.wal"
        with WalWriter(path) as writer:
            writer.append("insert", label="X", row=[1, 2])
            writer.append("delete", label="X")
            assert writer.count == 2
        scan = read_segment(path)
        assert [r.op for r in scan.records] == ["insert", "delete"]
        assert scan.records[0].row == (1.0, 2.0)
        assert not scan.torn

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "seg.wal"
        with WalWriter(path) as writer:
            writer.append("insert", label="X", row=[1.0])
        with WalWriter(path) as writer:
            assert writer.count == 1
            record = writer.append("insert", label="Y", row=[2.0])
        assert record.seq == 2
        assert len(read_segment(path).records) == 2

    def test_open_recovers_torn_tail(self, tmp_path):
        path = tmp_path / "seg.wal"
        with WalWriter(path) as writer:
            writer.append("insert", label="X", row=[1.0])
        with open(path, "ab") as fh:
            fh.write(b"half-written rec")
        with WalWriter(path) as writer:
            assert writer.count == 1
            writer.append("delete", label="X")
        scan = read_segment(path)
        assert [r.seq for r in scan.records] == [1, 2]
        assert not scan.torn

    def test_first_ts_tracks_oldest_pending(self, tmp_path):
        path = tmp_path / "seg.wal"
        with WalWriter(path) as writer:
            assert writer.first_ts is None
            first = writer.append("insert", label="X", row=[1.0])
            writer.append("insert", label="Y", row=[2.0])
            assert writer.first_ts == first.ts

    def test_unknown_op_rejected(self, tmp_path):
        with WalWriter(tmp_path / "seg.wal") as writer:
            with pytest.raises(ValueError, match="unknown WAL op"):
                writer.append("truncate", label="X")


class TestReplay:
    def test_replay_matches_live_mutations(self, flight_routes, tmp_path):
        cube = CompressedSkylineCube.build(flight_routes)
        live = MaintainedCube.adopt(cube)
        path = tmp_path / "seg.wal"
        with WalWriter(path) as writer:
            writer.append("insert", label="NEW", row=[100.0, 1.0, 0.0])
            live.insert([100.0, 1.0, 0.0], label="NEW")
            writer.append("delete", label="MULTIHOP")
            live.delete("MULTIHOP")
        replayed = MaintainedCube.adopt(CompressedSkylineCube.build(flight_routes))
        applied, skipped = apply_records(replayed, read_segment(path).records)
        assert (applied, skipped) == (2, 0)
        assert cube_fingerprint(replayed.cube) == cube_fingerprint(live.cube)
        assert replayed.dataset.labels == live.dataset.labels

    def test_invalid_records_skipped(self, flight_routes):
        cube = CompressedSkylineCube.build(flight_routes)
        maintained = MaintainedCube.adopt(cube)
        records = (
            WalRecord(seq=1, op="delete", label="NOPE", row=None, ts=0.0),
            WalRecord(seq=2, op="delete", label="DIRECT", row=None, ts=0.0),
        )
        applied, skipped = apply_records(maintained, records)
        assert (applied, skipped) == (1, 1)
        assert "DIRECT" not in maintained.dataset.labels


class TestRetire:
    def test_retire_moves_segment_aside(self, tmp_path):
        path = tmp_path / "v000001.wal"
        path.write_bytes(b"bytes")
        retired = retire_segment(path)
        assert retired.name == "v000001.wal.compacted"
        assert not path.exists()
        assert retired.read_bytes() == b"bytes"

    def test_retire_missing_segment_is_noop(self, tmp_path):
        assert retire_segment(tmp_path / "absent.wal") is None


class TestCompaction:
    def test_compact_publishes_replayed_state(self, published):
        store, dataset, cube, info = published
        segment = wal_path(store.root, "routes", info.version)
        with WalWriter(segment) as writer:
            writer.append("insert", label="NEW", row=[100.0, 1.0, 0.0])
            writer.append("delete", label="MULTIHOP")
        result = compact_snapshot(store, "routes")
        assert result.base_version == "v000001"
        assert result.new_version == "v000002"
        assert (result.records, result.applied, result.skipped) == (2, 2, 0)
        assert store.current_version("routes") == "v000002"
        assert not segment.exists()
        assert segment.with_name("v000001.wal.compacted").exists()

        # The published version is bit-identical to an offline replay.
        expected = MaintainedCube.adopt(cube)
        expected.insert([100.0, 1.0, 0.0], label="NEW")
        expected.delete("MULTIHOP")
        _, compacted, new_info = store.load("routes")
        assert cube_fingerprint(compacted) == cube_fingerprint(expected.cube)
        assert result.fingerprint == new_info.fingerprint

    def test_compact_empty_segment_is_noop(self, published):
        store = published[0]
        result = compact_snapshot(store, "routes")
        assert result.new_version is None
        assert result.records == 0
        assert store.current_version("routes") == "v000001"

    def test_compact_without_active_version_rejected(self, store):
        with pytest.raises(ValueError, match="unknown|no active"):
            compact_snapshot(store, "routes")


class TestServiceDurability:
    def test_acknowledged_mutations_survive_restart(self, published):
        store, dataset, cube, _ = published
        service = CubeService(store, reload_interval=0)
        ack = service.maintenance_insert([100.0, 1.0, 0.0], label="NEW")
        assert ack["cube_version"] == "routes@v000001+1"
        service.maintenance_delete("MULTIHOP")
        before = service.query("skyline", {"subspace": "price,stops"})
        # Simulate a crash: no close, no compaction -- a fresh service on
        # the same store must replay the WAL.
        reborn = CubeService(store, reload_interval=0)
        replayed = reborn.query("skyline", {"subspace": "price,stops"})
        assert replayed["cube_version"] == "routes@v000001+2"
        assert replayed["result"] == before["result"]

        expected = MaintainedCube.adopt(cube)
        expected.insert([100.0, 1.0, 0.0], label="NEW")
        expected.delete("MULTIHOP")
        state = reborn._state("routes")
        assert cube_fingerprint(state.cube) == cube_fingerprint(expected.cube)
        service.close()
        reborn.close()

    def test_invalid_mutation_never_reaches_wal(self, published):
        store = published[0]
        service = CubeService(store, reload_interval=0)
        with pytest.raises(ValueError):
            service.maintenance_delete("NOPE")
        with pytest.raises(ValueError):
            service.maintenance_insert([1.0], label="short-row")
        segment = wal_path(store.root, "routes", "v000001")
        assert read_segment(segment).records == ()
        service.close()

    @pytest.mark.parametrize(
        "body",
        [
            '{"row": [NaN, 0.1, 0.2], "label": "BAD"}',
            '{"row": [0.1, Infinity, 0.2], "label": "BAD"}',
            '{"row": [0.1, [0.5], 0.2], "label": "BAD"}',
        ],
        ids=["nan", "inf", "nested-list"],
    )
    def test_rejected_insert_leaves_wal_untouched(self, published, body):
        store = published[0]
        service = CubeService(store, reload_interval=0)
        service.maintenance_insert([100.0, 1.0, 0.0], label="NEW")
        segment = wal_path(store.root, "routes", "v000001")
        appends = registry().counter("serve.wal.appends")
        size, appended = segment.stat().st_size, appends.value
        # json.loads accepts NaN/Infinity, as the HTTP handler's parser does.
        status, payload, _ = service.handle_http(
            "POST", "/v1/maintenance/insert", {}, json.loads(body)
        )
        assert status == 400
        assert payload["error"] == "bad_request"
        assert segment.stat().st_size == size
        assert appends.value == appended
        assert [r.label for r in read_segment(segment).records] == ["NEW"]
        service.close()

    def test_wal_disabled_loses_mutations(self, published):
        store = published[0]
        service = CubeService(store, reload_interval=0, wal_enabled=False)
        service.maintenance_insert([100.0, 1.0, 0.0], label="NEW")
        assert not wal_path(store.root, "routes", "v000001").exists()
        reborn = CubeService(store, reload_interval=0, wal_enabled=False)
        assert reborn.query("skyline", {"subspace": "price"})["cube_version"] == (
            "routes@v000001"
        )
        service.close()
        reborn.close()

    def test_service_compact_folds_wal(self, published):
        store = published[0]
        service = CubeService(store, reload_interval=0)
        service.maintenance_insert([100.0, 1.0, 0.0], label="NEW")
        out = service.compact()
        assert out["compacted"] is True
        assert out["new_version"] == "v000002"
        assert out["cube_version"] == "routes@v000002"
        assert store.current_version("routes") == "v000002"
        # Served state rolled onto the new base; WAL drained.
        assert service.query("skyline", {"subspace": "price"})["cube_version"] == (
            "routes@v000002"
        )
        again = service.compact()
        assert again["compacted"] is False
        # The compacted snapshot equals the offline replay of the old WAL.
        _, compacted, _ = store.load("routes", version="v000002")
        reborn = CubeService(store, reload_interval=0)
        state = reborn._state("routes")
        assert cube_fingerprint(state.cube) == cube_fingerprint(compacted)
        service.close()
        reborn.close()

    def test_auto_compaction_threshold(self, published):
        store = published[0]
        service = CubeService(store, reload_interval=0, compact_threshold=2)
        service.maintenance_insert([100.0, 1.0, 0.0], label="N1")
        assert store.current_version("routes") == "v000001"
        ack = service.maintenance_insert([101.0, 1.0, 0.0], label="N2")
        # Threshold reached: the mutation that tipped it is acknowledged
        # on the freshly compacted base.
        assert ack["cube_version"] == "routes@v000002"
        assert store.current_version("routes") == "v000002"
        assert not wal_path(store.root, "routes", "v000001").exists()
        service.close()

    def test_negative_compact_threshold_rejected(self, published):
        with pytest.raises(ValueError, match="compact_threshold"):
            CubeService(published[0], compact_threshold=-1)

    def test_health_reports_wal_depth_and_staleness(self, published):
        store = published[0]
        service = CubeService(store, reload_interval=0)
        service.query("skyline", {"subspace": "price"})  # force load
        health = service.health()
        snap = health["snapshots"]["routes"]
        assert snap["wal_depth"] == 0
        assert snap["wal_staleness_seconds"] is None
        service.maintenance_insert([100.0, 1.0, 0.0], label="NEW")
        snap = service.health()["snapshots"]["routes"]
        assert snap["wal_depth"] == 1
        assert snap["wal_staleness_seconds"] >= 0
        service.close()

    def test_wal_disabled_health_depth_is_none(self, published):
        service = CubeService(
            published[0], reload_interval=0, wal_enabled=False
        )
        service.query("skyline", {"subspace": "price"})
        snap = service.health()["snapshots"]["routes"]
        assert snap["wal_depth"] is None
        service.close()


class TestCrashRecoverySubprocess:
    """SIGKILL the serving process mid-churn; replay must be bit-identical.

    The restarted server's every subspace skyline is checked against the
    soak harness's :class:`ConsistencyOracle` -- an offline rebuild of
    "base dataset + acknowledged mutations", computed with an independent
    skyline implementation -- and against a direct offline replay of the
    on-disk WAL segment.
    """

    ALL_SUBSPACES = (
        "price",
        "traveltime",
        "stops",
        "price,traveltime",
        "price,stops",
        "traveltime,stops",
        "price,traveltime,stops",
    )

    def _launch(self, snaps, publish=None):
        import subprocess
        import sys
        import time
        from pathlib import Path

        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--snapshot-dir",
            str(snaps),
            "--snapshot",
            "routes",
            "--port",
            "0",
        ]
        if publish is not None:
            argv += ["--publish", str(publish)]
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
        )
        deadline = time.monotonic() + 120
        url = None
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving at "):
                url = line.split()[2]
                break
        assert url, "server never reported its URL"
        return proc, url

    def test_sigkill_then_replay_bit_identical(self, tmp_path, flight_routes):
        import signal

        from repro.data import save_csv
        from repro.loadtest import ConsistencyOracle

        from .test_serve import http_get, http_post

        csv_path = tmp_path / "routes.csv"
        save_csv(flight_routes, csv_path)
        snaps = tmp_path / "snaps"
        oracle = ConsistencyOracle(flight_routes)
        oracle.register_base("routes@v000001")

        proc, url = self._launch(snaps, publish=csv_path)
        try:
            mutations = [
                ("insert", (100.0, 1.0, 0.0), "CONCORDE"),
                ("insert", (985.0, 14.0, 1.0), "CODESHARE"),
                ("delete", "MULTIHOP"),
                ("insert", (2000.0, 10.0, 0.0), "PRIVATE-JET"),
            ]
            last_ack = None
            for op in mutations:
                if op[0] == "insert":
                    status, body = http_post(
                        f"{url}/v1/maintenance/insert",
                        {"row": list(op[1]), "label": op[2]},
                    )
                else:
                    status, body = http_post(
                        f"{url}/v1/maintenance/delete", {"label": op[1]}
                    )
                assert status == 200
                last_ack = body["cube_version"]
                oracle.record_mutation(last_ack, op)
            assert last_ack == "routes@v000001+4"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        # The acknowledged mutations are all on disk, in order.
        segment = wal_path(snaps, "routes", "v000001")
        records = read_segment(segment).records
        assert [r.op for r in records] == [op[0] for op in mutations]

        # Offline replay of dataset + WAL: the ground truth fingerprint.
        offline = MaintainedCube.adopt(
            CompressedSkylineCube.build(flight_routes)
        )
        assert apply_records(offline, records) == (4, 0)

        proc, url = self._launch(snaps)
        try:
            for subspace in self.ALL_SUBSPACES:
                status, body = http_get(
                    f"{url}/v1/skyline?subspace={subspace}"
                )
                assert status == 200
                assert body["cube_version"] == "routes@v000001+4"
                assert sorted(body["result"]) == oracle.expected_skyline(
                    "routes@v000001+4", subspace
                ), subspace

            # The replayed in-process cube equals the offline replay too.
            reborn = CubeService(SnapshotStore(snaps), reload_interval=0)
            state = reborn._state("routes")
            assert cube_fingerprint(state.cube) == cube_fingerprint(
                offline.cube
            )
            reborn.close()

            # Compaction over HTTP folds the segment into v000002...
            status, body = http_post(f"{url}/v1/maintenance/compact", {})
            assert status == 200
            assert body["new_version"] == "v000002"
            status, body = http_get(f"{url}/v1/skyline?subspace=price")
            assert body["cube_version"] == "routes@v000002"
            assert not segment.exists()

            # ...and the published version matches the replayed state.
            _, compacted, _ = SnapshotStore(snaps).load("routes", "v000002")
            assert cube_fingerprint(compacted) == cube_fingerprint(
                offline.cube
            )
        finally:
            proc.terminate()
            proc.wait(timeout=30)
