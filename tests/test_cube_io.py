"""Tests for compressed-cube persistence (the one binary cube format)."""

import pytest

from repro.baselines.naive_cube import naive_compressed_cube
from repro.baselines.skyey import skyey
from repro.core.lattice import seed_groups_as_skyline_groups
from repro.core.stellar import stellar
from repro.cube import CompressedSkylineCube, load_cube, save_cube
from repro.cube.io import BINARY_FORMAT, dataset_fingerprint


class TestRoundTrip:
    def test_groups_survive(self, tmp_path, running_example):
        cube = CompressedSkylineCube(
            running_example, stellar(running_example).groups
        )
        path = tmp_path / "cube.bin"
        save_cube(cube, path)
        loaded = load_cube(path, running_example)
        assert [(g.key, g.decisive, g.projection) for g in loaded.groups] == [
            (g.key, g.decisive, g.projection) for g in cube.groups
        ]

    @pytest.mark.parametrize(
        "build",
        [
            lambda ds: stellar(ds).groups,
            lambda ds: skyey(ds).groups,
            naive_compressed_cube,
            lambda ds: seed_groups_as_skyline_groups(ds, stellar(ds)),
        ],
        ids=["stellar", "skyey", "naive", "seed-lattice"],
    )
    def test_built_projections_equal_reloaded(self, tmp_path, flight_routes, build):
        """Every builder's projections are Python floats, as reloaded."""
        cube = CompressedSkylineCube(flight_routes, build(flight_routes))
        save_cube(cube, tmp_path / "cube.bin")
        loaded = load_cube(tmp_path / "cube.bin", flight_routes)
        assert [(g.key, g.decisive, g.projection) for g in loaded.groups] == [
            (g.key, g.decisive, g.projection) for g in cube.groups
        ]
        for group in cube.groups:
            assert all(type(v) is float for v in group.projection)

    def test_loaded_cube_answers_queries(self, tmp_path, flight_routes):
        cube = CompressedSkylineCube.build(flight_routes)
        path = tmp_path / "routes.cube"
        save_cube(cube, path)
        loaded = load_cube(path, flight_routes)
        mask = flight_routes.parse_subspace("price,stops")
        assert loaded.skyline_of(mask) == cube.skyline_of(mask)
        assert loaded.top_frequent(3) == cube.top_frequent(3)


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path, running_example):
        cube = CompressedSkylineCube.build(running_example)
        save_cube(cube, tmp_path / "cube.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["cube.bin"]

    def test_overwrite_is_all_or_nothing(self, tmp_path, running_example):
        cube = CompressedSkylineCube.build(running_example)
        path = tmp_path / "cube.bin"
        save_cube(cube, path)
        before = path.read_bytes()
        save_cube(cube, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cube.bin"]


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
        path = tmp_path / "cube.bin"
        save_cube(cube, path)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_cube(path, flight_routes)

    def test_garbage_file_rejected(self, tmp_path, running_example):
        path = tmp_path / "junk.json"
        path.write_text("not json {{{")
        with pytest.raises(ValueError, match="not a cube file"):
            load_cube(path, running_example)

    def test_wrong_format_rejected(self, tmp_path, running_example):
        # Right magic, but the header names another format revision.
        path = tmp_path / "other.bin"
        save_cube(CompressedSkylineCube.build(running_example), path)
        blob = path.read_bytes()
        path.write_bytes(
            blob.replace(BINARY_FORMAT.encode(), b"repro-skyline-cube-bin/1")
        )
        with pytest.raises(ValueError, match=f"not a {BINARY_FORMAT} file"):
            load_cube(path, running_example)


class TestBinarySnapshot:
    """The binary cube format's layout and integrity checks (docs/SERVING.md)."""

    def _build(self, dataset):
        return CompressedSkylineCube.build(dataset)

    def test_round_trip_is_faithful(self, tmp_path, flight_routes):
        cube = self._build(flight_routes)
        path = tmp_path / "cube.bin"
        save_cube(cube, path)
        loaded = load_cube(path)
        loaded_data = loaded.dataset
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
        save_cube(cube, path)
        loaded = load_cube(path)
        mask = flight_routes.parse_subspace("price,stops")
        assert loaded.skyline_of(mask) == cube.skyline_of(mask)
        assert loaded.top_frequent(3) == cube.top_frequent(3)

    def test_load_cube_sniffs_binary_magic(self, tmp_path, flight_routes):
        # The magic identifies the file, whatever its name; a supplied
        # dataset becomes the cube's dataset.
        cube = self._build(flight_routes)
        path = tmp_path / "routes.dat"
        save_cube(cube, path)
        loaded = load_cube(path, flight_routes)
        assert loaded.dataset is flight_routes
        assert [g.key for g in loaded.groups] == [g.key for g in cube.groups]

    def test_corrupt_payload_names_checksum(self, tmp_path, flight_routes):
        path = tmp_path / "cube.bin"
        save_cube(self._build(flight_routes), path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_cube(path)

    def test_truncated_payload_rejected(self, tmp_path, flight_routes):
        path = tmp_path / "cube.bin"
        save_cube(self._build(flight_routes), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 8])
        with pytest.raises(ValueError, match="truncated cube file"):
            load_cube(path)

    def test_truncated_header_rejected(self, tmp_path, flight_routes):
        path = tmp_path / "cube.bin"
        save_cube(self._build(flight_routes), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated cube file"):
            load_cube(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTABINv" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_cube(path)

    def test_fingerprint_mismatch_rejected(
        self, tmp_path, running_example, flight_routes
    ):
        path = tmp_path / "cube.bin"
        save_cube(self._build(running_example), path)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_cube(path, flight_routes)

    def test_write_is_atomic(self, tmp_path, flight_routes, monkeypatch):
        # A crash mid-write must never leave a partial cube.bin behind:
        # the payload goes through atomic_write_bytes (tmp file + rename).
        import repro.cube.io as io_mod

        def explode(path, data):
            raise RuntimeError("disk full")

        monkeypatch.setattr(io_mod, "atomic_write_bytes", explode)
        path = tmp_path / "cube.bin"
        with pytest.raises(RuntimeError):
            save_cube(self._build(flight_routes), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
