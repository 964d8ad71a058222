"""A build that overflows the hitting-set cap fails typed, never as a 500.

Every Stellar build calls ``compute_seed_groups`` from the
``repro.core.stellar`` module; patching it to raise
:class:`HittingSetOverflow` makes any build overflow without the input
that would take minutes to get there.
"""

import importlib

import pytest

from repro.cli import main
from repro.core.hitting import HittingSetOverflow
from repro.cube.compressed import CompressedSkylineCube
from repro.data import save_csv
from repro.serve import CubeService, SnapshotStore


#: The module, not the ``stellar`` function ``repro.core`` re-exports.
_STELLAR = importlib.import_module("repro.core.stellar")


def _overflow(*args, **kwargs):
    raise HittingSetOverflow("more than 100000 candidate transversals")


@pytest.fixture
def overflowing(monkeypatch):
    monkeypatch.setattr(_STELLAR, "compute_seed_groups", _overflow)


@pytest.fixture
def published(tmp_path, flight_routes):
    store = SnapshotStore(tmp_path / "snaps")
    store.publish("routes", flight_routes, CompressedSkylineCube.build(flight_routes))
    return store


class TestServe:
    def test_publish_is_422(self, published, flight_routes, tmp_path, overflowing):
        service = CubeService(published, reload_interval=0)
        save_csv(flight_routes, tmp_path / "routes.csv")
        body = {"name": "routes", "csv": (tmp_path / "routes.csv").read_text()}
        status, payload, _ = service.handle_http(
            "POST", "/v1/snapshots/publish", {}, body
        )
        assert status == 422
        assert payload["error"] == "build_overflow"
        assert "candidate transversals" in payload["detail"]
        assert published.current_version("routes") == "v000001"

    def test_insert_that_rebuilds_is_422(self, published, monkeypatch):
        service = CubeService(published, reload_interval=0)
        before = service.query("skyline", {"subspace": "price"})
        monkeypatch.setattr(_STELLAR, "compute_seed_groups", _overflow)
        # Dominates every route, so the insert leaves the fast path.
        status, payload, _ = service.handle_http(
            "POST", "/v1/maintenance/insert", {}, {"row": [1, 1, 0], "label": "X"}
        )
        assert status == 422
        assert payload["error"] == "build_overflow"
        after = service.query("skyline", {"subspace": "price"})
        assert after["cube_version"] == before["cube_version"]
        assert after["result"] == before["result"]
        # The rejected insert is logged; a restart replays it, fails the same
        # way and skips it, so the restarted service answers the same.
        restarted = CubeService(published, reload_interval=0)
        again = restarted.query("skyline", {"subspace": "price"})
        assert again["result"] == before["result"]
        assert again["cube_version"] == before["cube_version"]


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--input", "routes.csv"],
            ["cube", "--input", "routes.csv", "--out", "c.cube"],
            ["query", "--input", "routes.csv", "--skyline-of", "price"],
            ["analyze", "--input", "routes.csv"],
            ["serve", "--snapshot-dir", "snaps", "--publish", "routes.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_error_line_and_exit_2(
        self, tmp_path, flight_routes, overflowing, argv, capsys
    ):
        save_csv(flight_routes, tmp_path / "routes.csv")
        argv = [str(tmp_path / a) if "." in a else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "candidate transversals" in err
