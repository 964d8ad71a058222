"""Tests for compressed-cube persistence."""

import gzip
import json

import pytest

from repro.core.stellar import stellar
from repro.cube import CompressedSkylineCube, load_cube, save_cube
from repro.cube.io import (
    dataset_fingerprint,
    load_snapshot_binary,
    save_snapshot_binary,
)


class TestRoundTrip:
    def test_groups_survive(self, tmp_path, running_example):
        cube = CompressedSkylineCube(
            running_example, stellar(running_example).groups
        )
        path = tmp_path / "cube.json"
        save_cube(cube, path)
        loaded = load_cube(path, running_example)
        assert [(g.key, g.decisive, g.projection) for g in loaded.groups] == [
            (g.key, g.decisive, g.projection) for g in cube.groups
        ]

    def test_loaded_cube_answers_queries(self, tmp_path, flight_routes):
        cube = CompressedSkylineCube.build(flight_routes)
        path = tmp_path / "routes.cube"
        save_cube(cube, path)
        loaded = load_cube(path, flight_routes)
        mask = flight_routes.parse_subspace("price,stops")
        assert loaded.skyline_of(mask) == cube.skyline_of(mask)
        assert loaded.top_frequent(3) == cube.top_frequent(3)

    def test_file_is_valid_json(self, tmp_path, running_example):
        cube = CompressedSkylineCube.build(running_example)
        path = tmp_path / "cube.json"
        save_cube(cube, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-skyline-cube/1"
        assert payload["n_objects"] == 5
        assert len(payload["groups"]) == 8


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path, running_example):
        cube = CompressedSkylineCube.build(running_example)
        save_cube(cube, tmp_path / "cube.json")
        assert [p.name for p in tmp_path.iterdir()] == ["cube.json"]

    def test_overwrite_is_all_or_nothing(self, tmp_path, running_example):
        cube = CompressedSkylineCube.build(running_example)
        path = tmp_path / "cube.json"
        save_cube(cube, path)
        before = path.read_text()
        save_cube(cube, path)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cube.json"]


class TestGzip:
    def test_gz_suffix_writes_gzip(self, tmp_path, running_example):
        cube = CompressedSkylineCube.build(running_example)
        path = tmp_path / "cube.json.gz"
        save_cube(cube, path)
        raw = path.read_bytes()
        assert raw[:2] == b"\x1f\x8b"
        payload = json.loads(gzip.decompress(raw))
        assert payload["format"] == "repro-skyline-cube/1"

    def test_gzip_round_trip(self, tmp_path, running_example):
        cube = CompressedSkylineCube.build(running_example)
        path = tmp_path / "cube.json.gz"
        save_cube(cube, path)
        loaded = load_cube(path, running_example)
        assert [(g.key, g.decisive) for g in loaded.groups] == [
            (g.key, g.decisive) for g in cube.groups
        ]

    def test_sniff_ignores_extension(self, tmp_path, running_example):
        # A gzip stream under a plain .json name still loads: content wins.
        cube = CompressedSkylineCube.build(running_example)
        gz = tmp_path / "cube.json.gz"
        save_cube(cube, gz)
        plain = tmp_path / "cube.json"
        plain.write_bytes(gz.read_bytes())
        loaded = load_cube(plain, running_example)
        assert len(loaded.groups) == len(cube.groups)

    def test_truncated_gzip_rejected(self, tmp_path, running_example):
        cube = CompressedSkylineCube.build(running_example)
        gz = tmp_path / "cube.json.gz"
        save_cube(cube, gz)
        torn = tmp_path / "torn.json.gz"
        torn.write_bytes(gz.read_bytes()[:20])
        with pytest.raises(ValueError, match="not a cube file"):
            load_cube(torn, running_example)


class TestValidation:
    def test_fingerprint_differs_across_datasets(
        self, running_example, flight_routes
    ):
        assert dataset_fingerprint(running_example) != dataset_fingerprint(
            flight_routes
        )

    def test_wrong_dataset_rejected(
        self, tmp_path, running_example, flight_routes
    ):
        cube = CompressedSkylineCube.build(running_example)
        path = tmp_path / "cube.json"
        save_cube(cube, path)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_cube(path, flight_routes)

    def test_garbage_file_rejected(self, tmp_path, running_example):
        path = tmp_path / "junk.json"
        path.write_text("not json {{{")
        with pytest.raises(ValueError, match="not a cube file"):
            load_cube(path, running_example)

    def test_wrong_format_rejected(self, tmp_path, running_example):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a repro-skyline-cube"):
            load_cube(path, running_example)


class TestBinarySnapshot:
    """The mmap binary snapshot format (docs/SERVING.md)."""

    def _build(self, dataset):
        return CompressedSkylineCube.build(dataset)

    def test_round_trip_is_faithful(self, tmp_path, flight_routes):
        cube = self._build(flight_routes)
        path = tmp_path / "cube.bin"
        save_snapshot_binary(cube, path)
        loaded_data, loaded = load_snapshot_binary(path)
        assert loaded_data.names == flight_routes.names
        assert loaded_data.directions == flight_routes.directions
        assert loaded_data.labels == flight_routes.labels
        assert (loaded_data.values == flight_routes.values).all()
        assert [(g.key, g.decisive, g.projection) for g in loaded.groups] == [
            (g.key, g.decisive, g.projection) for g in cube.groups
        ]

    def test_loaded_cube_answers_queries(self, tmp_path, flight_routes):
        cube = self._build(flight_routes)
        path = tmp_path / "cube.bin"
        save_snapshot_binary(cube, path)
        _, loaded = load_snapshot_binary(path, flight_routes)
        mask = flight_routes.parse_subspace("price,stops")
        assert loaded.skyline_of(mask) == cube.skyline_of(mask)
        assert loaded.top_frequent(3) == cube.top_frequent(3)

    def test_load_cube_sniffs_binary_magic(self, tmp_path, flight_routes):
        cube = self._build(flight_routes)
        path = tmp_path / "cube.bin"
        save_snapshot_binary(cube, path)
        loaded = load_cube(path, flight_routes)
        assert [g.key for g in loaded.groups] == [g.key for g in cube.groups]

    def test_corrupt_payload_names_checksum(self, tmp_path, flight_routes):
        path = tmp_path / "cube.bin"
        save_snapshot_binary(self._build(flight_routes), path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_snapshot_binary(path)

    def test_truncated_payload_rejected(self, tmp_path, flight_routes):
        path = tmp_path / "cube.bin"
        save_snapshot_binary(self._build(flight_routes), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 8])
        with pytest.raises(ValueError, match="truncated binary snapshot"):
            load_snapshot_binary(path)

    def test_truncated_header_rejected(self, tmp_path, flight_routes):
        path = tmp_path / "cube.bin"
        save_snapshot_binary(self._build(flight_routes), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated binary snapshot"):
            load_snapshot_binary(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTABINv" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_snapshot_binary(path)

    def test_fingerprint_mismatch_rejected(
        self, tmp_path, running_example, flight_routes
    ):
        path = tmp_path / "cube.bin"
        save_snapshot_binary(self._build(running_example), path)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_snapshot_binary(path, flight_routes)

    def test_write_is_atomic(self, tmp_path, flight_routes, monkeypatch):
        # A crash mid-write must never leave a partial cube.bin behind:
        # the payload goes through atomic_write_bytes (tmp file + rename).
        import repro.cube.io as io_mod

        def explode(path, data):
            raise RuntimeError("disk full")

        monkeypatch.setattr(io_mod, "atomic_write_bytes", explode)
        path = tmp_path / "cube.bin"
        with pytest.raises(RuntimeError):
            save_snapshot_binary(self._build(flight_routes), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
