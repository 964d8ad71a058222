"""Tests for the temporal skycube diff (repro.cube.diff).

The diff is validated against a brute-force oracle: per-subspace skyline
membership recomputed independently with :func:`skycube_naive`, so the
compressed-representation algebra (group keys, decisive intervals,
subset enumeration) is checked end to end.  The ``/v1/diff`` endpoint must
serve and cache the same answer, and ``repro diff`` must print it.
"""

import json
import random

import pytest

from repro.core.types import Dataset
from repro.cube import CompressedSkylineCube, MaintainedCube
from repro.cube.diff import DIFF_PLAN_COUNTERS, diff_cubes
from repro.serve import CubeService, SnapshotStore
from repro.skycube.naive import skycube_naive


def memberships(dataset):
    """Brute force: label -> set of subspace masks it is a skyline member of."""
    out = {}
    for mask, indices in skycube_naive(dataset).items():
        for i in indices:
            out.setdefault(dataset.labels[i], set()).add(mask)
    return out


@pytest.fixture
def versions(flight_routes):
    """Two cube generations of the routes catalogue."""
    old = CompressedSkylineCube.build(flight_routes)
    mc = MaintainedCube.adopt(CompressedSkylineCube.build(flight_routes))
    mc.insert([100.0, 1.0, 0.0], label="CONCORDE")
    mc.delete("MULTIHOP")
    return old, mc.cube


class TestDiffCorrectness:
    def test_objects_match_brute_force(self, versions):
        old, new = versions
        diff = diff_cubes(old, new)
        by_old = memberships(old.dataset)
        by_new = memberships(new.dataset)
        assert set(diff.entered_objects) == set(by_new) - set(by_old)
        assert set(diff.exited_objects) == set(by_old) - set(by_new)

    def test_fullspace_matches_brute_force(self, versions):
        old, new = versions
        diff = diff_cubes(old, new)
        full = (1 << old.dataset.n_dims) - 1
        old_full = {
            old.dataset.labels[i] for i in skycube_naive(old.dataset)[full]
        }
        new_full = {
            new.dataset.labels[i] for i in skycube_naive(new.dataset)[full]
        }
        assert set(diff.fullspace_entered) == new_full - old_full
        assert set(diff.fullspace_exited) == old_full - new_full

    def test_churn_matches_brute_force(self, versions):
        old, new = versions
        diff = diff_cubes(old, new)
        by_old = memberships(old.dataset)
        by_new = memberships(new.dataset)
        expected = {}
        for label in set(by_old) | set(by_new):
            for mask in by_old.get(label, set()) ^ by_new.get(label, set()):
                expected[mask] = expected.get(mask, 0) + 1
        assert diff.churn == expected
        assert diff.total_churn == sum(expected.values())

    def test_group_sets_match_cube_keys(self, versions):
        old, new = versions

        def keys(cube):
            return {
                (tuple(sorted(cube.dataset.labels[m] for m in g.members)),
                 g.subspace)
                for g in cube.groups
            }

        diff = diff_cubes(old, new)
        entered = {(g.labels, g.subspace) for g in diff.entered_groups}
        exited = {(g.labels, g.subspace) for g in diff.exited_groups}
        assert entered == keys(new) - keys(old)
        assert exited == keys(old) - keys(new)

    def test_reverse_diff_mirrors_brute_force(self, versions):
        old, new = versions
        forward = diff_cubes(old, new)
        backward = diff_cubes(new, old)
        by_old = memberships(old.dataset)
        by_new = memberships(new.dataset)
        expected = {}
        for label in set(by_old) | set(by_new):
            for mask in by_old.get(label, set()) ^ by_new.get(label, set()):
                expected[mask] = expected.get(mask, 0) + 1
        assert forward.churn == backward.churn == expected
        assert forward.entered_groups == backward.exited_groups
        assert forward.exited_groups == backward.entered_groups
        assert forward.entered_objects == backward.exited_objects
        assert forward.fullspace_exited == backward.fullspace_entered

    def test_identical_cubes_diff_empty(self, versions):
        old, _ = versions
        diff = diff_cubes(old, old)
        assert diff.entered_groups == ()
        assert diff.exited_groups == ()
        assert diff.changed_groups == ()
        assert diff.churn == {}
        assert diff.total_churn == 0

    def test_schema_mismatch_rejected(self, versions):
        old, _ = versions
        other = CompressedSkylineCube.build(
            Dataset.from_rows([[1, 2, 3]], names=("a", "b", "c"))
        )
        with pytest.raises(ValueError, match="different schemas"):
            diff_cubes(old, other)

    def test_churn_skipped_beyond_max_dims(self, versions):
        old, new = versions
        diff = diff_cubes(old, new, max_churn_dims=2)
        assert diff.churn_skipped
        assert diff.churn == {}
        assert "churn_skipped" in diff.plan.detail
        assert "skipped" in diff.render()
        # Group algebra still runs even when churn is skipped.
        assert diff.entered_objects == ("CONCORDE",)

    def test_random_streams_match_brute_force(self):
        rng = random.Random(20260808)
        for _ in range(5):
            rows = [
                [rng.randint(0, 4) for _ in range(3)]
                for _ in range(rng.randint(3, 7))
            ]
            base = Dataset.from_rows(rows)
            old = CompressedSkylineCube.build(base)
            mc = MaintainedCube.adopt(CompressedSkylineCube.build(base))
            for _ in range(3):
                if rng.random() < 0.6 or mc.dataset.n_objects <= 1:
                    mc.insert([rng.randint(0, 4) for _ in range(3)])
                else:
                    mc.delete(rng.choice(mc.dataset.labels))
            diff = diff_cubes(old, mc.cube)
            by_old = memberships(old.dataset)
            by_new = memberships(mc.dataset)
            expected = {}
            for label in set(by_old) | set(by_new):
                masks = by_old.get(label, set()) ^ by_new.get(label, set())
                for mask in masks:
                    expected[mask] = expected.get(mask, 0) + 1
            assert diff.churn == expected
            assert set(diff.entered_objects) == set(by_new) - set(by_old)
            assert set(diff.exited_objects) == set(by_old) - set(by_new)


class TestDiffPlan:
    def test_counters_complete_and_mirrored(self, versions):
        from repro.obs import registry

        old, new = versions
        before = {
            name: registry().counter(f"cube.diff.{name}").value
            for name in DIFF_PLAN_COUNTERS
        }
        diff = diff_cubes(old, new)
        assert set(diff.plan.counters) == set(DIFF_PLAN_COUNTERS)
        assert diff.plan.counters["groups_old"] == len(old.groups)
        assert diff.plan.counters["groups_new"] == len(new.groups)
        for name in DIFF_PLAN_COUNTERS:
            delta = registry().counter(f"cube.diff.{name}").value - before[name]
            assert delta == diff.plan.counters[name], name

    def test_render_and_to_dict(self, versions):
        old, new = versions
        diff = diff_cubes(old, new)
        text = diff.plan.render()
        assert text.startswith("EXPLAIN cube.diff")
        assert "subspaces scanned" in text
        doc = diff.to_dict(top=3)
        assert doc["dimensions"] == ["price", "traveltime", "stops"]
        assert len(doc["churn"]["top"]) <= 3
        assert "engine" not in doc["plan"]
        json.dumps(doc)  # must be JSON-serialisable as-is

    def test_subspace_names_formatted(self, versions):
        old, new = versions
        doc = diff_cubes(old, new).to_dict()
        for row in doc["churn"]["top"]:
            for dim in row["subspace"].split(","):
                assert dim in ("price", "traveltime", "stops")


class TestDiffService:
    @pytest.fixture
    def served(self, tmp_path, versions):
        old, new = versions
        store = SnapshotStore(tmp_path / "snapshots")
        store.publish("routes", old.dataset, old)
        store.publish("routes", new.dataset, new)
        service = CubeService(store, reload_interval=0)
        yield store, service
        service.close()

    def test_diff_envelope_and_cache(self, served):
        _, service = served
        out = service.diff("v000001", "v000002")
        assert out["snapshot"] == "routes"
        assert (out["from"], out["to"]) == ("v000001", "v000002")
        assert out["cached"] is False
        assert out["diff"]["entered_objects"] == ["CONCORDE"]
        again = service.diff("v000001", "v000002")
        assert again["cached"] is True
        assert again["diff"] == out["diff"]

    def test_distinct_top_cached_separately(self, served):
        _, service = served
        service.diff("v000001", "v000002", top=1)
        fresh = service.diff("v000001", "v000002", top=2)
        assert fresh["cached"] is False

    def test_bad_versions_rejected(self, served):
        _, service = served
        with pytest.raises(ValueError, match="bad version"):
            service.diff("1", "v000002")
        with pytest.raises(ValueError, match="no version"):
            service.diff("v000001", "v000099")
        with pytest.raises(ValueError, match="top"):
            service.diff("v000001", "v000002", top=0)

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_deadline_is_bad_request(self, served, budget):
        _, service = served
        query = {"from": ["v000001"], "to": ["v000002"], "deadline_ms": [budget]}
        status, payload, _ = service.handle_http("GET", "/v1/diff", query, {})
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "finite" in payload["detail"]

    def test_http_endpoint(self, served):
        from repro.serve import start_server

        from .test_serve import http_get

        _, service = served
        with start_server(service) as server:
            status, body = http_get(
                f"{server.url}/v1/diff?from=v000001&to=v000002&top=2"
            )
            assert status == 200
            assert body["diff"]["entered_objects"] == ["CONCORDE"]
            assert len(body["diff"]["churn"]["top"]) <= 2
            status, body = http_get(f"{server.url}/v1/diff?from=v000001")
            assert status == 400
            status, body = http_get(
                f"{server.url}/v1/diff?from=bogus&to=v000002"
            )
            assert status == 400
            assert body["error"] == "bad_request"


class TestDiffCLI:
    @pytest.fixture
    def snapshot_dir(self, tmp_path, versions):
        old, new = versions
        store = SnapshotStore(tmp_path / "snapshots")
        store.publish("routes", old.dataset, old)
        store.publish("routes", new.dataset, new)
        return str(tmp_path / "snapshots")

    def test_diff_table(self, snapshot_dir, capsys):
        from repro.cli import main

        rc = main(["diff", "--snapshot-dir", snapshot_dir, "--explain"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "diff routes@v000001 -> routes@v000002" in out
        assert "CONCORDE" in out
        assert "EXPLAIN cube.diff" in out

    def test_diff_json(self, snapshot_dir, capsys):
        from repro.cli import main

        rc = main(
            [
                "diff",
                "--snapshot-dir",
                snapshot_dir,
                "--from",
                "v000001",
                "--to",
                "v000002",
                "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["from"] == "v000001"
        assert doc["diff"]["entered_objects"] == ["CONCORDE"]

    def test_diff_requires_older_version(self, tmp_path, versions, capsys):
        from repro.cli import main

        old, _ = versions
        store = SnapshotStore(tmp_path / "one")
        store.publish("routes", old.dataset, old)
        rc = main(["diff", "--snapshot-dir", str(tmp_path / "one")])
        assert rc == 2
        assert "no version older" in capsys.readouterr().err

    def test_compact_cli_round_trip(self, snapshot_dir, capsys):
        from repro.cli import main
        from repro.wal import WalWriter, wal_path

        with WalWriter(
            wal_path(snapshot_dir, "routes", "v000002")
        ) as writer:
            writer.append("insert", label="ZEPPELIN", row=[5.0, 170.0, 0.0])
        rc = main(["compact", "--snapshot-dir", snapshot_dir, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["new_version"] == "v000003"
        assert doc["applied"] == 1
        rc = main(["diff", "--snapshot-dir", snapshot_dir, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["from"] == "v000002"
        assert doc["to"] == "v000003"
        assert "ZEPPELIN" in doc["diff"]["entered_objects"]
