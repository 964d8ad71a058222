"""Edge regimes: zero-dimension datasets and > 62 dimensions.

Beyond 62 dimensions the packed masks switch from ``int64`` vectors to
Python big-ints in object arrays; nothing exponential (oracle, Skyey) can
referee there, so the checks are definitional: every produced group must
satisfy Definition 1 and carry exactly its Definition 2 decisive set, both
verifiable in polynomial time via the Theorem 4 characterisation.
"""

import numpy as np
import pytest

from repro.baselines import naive_compressed_cube
from repro.core.cgroups import enumerate_maximal_cgroups
from repro.core.dominance import PairwiseMatrices
from repro.core.extension import _share_maps_block
from repro.core.seeds import compute_seed_groups, singleton_decisive
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.core.validate import (
    decisive_subspaces_theorem4,
    is_maximal_cgroup,
)
from repro.cube import CompressedSkylineCube, cube_fingerprint, load_cube, save_cube
from repro.cube.query import QueryEngine
from repro.data import save_csv
from repro.serve import CubeService, SnapshotStore
from repro.skyline import compute_skyline, is_skyline_member

from .test_seeds import KEEP_CASES, group_signatures


class TestZeroDimensions:
    def test_dataset_constructs(self):
        ds = Dataset(values=np.empty((3, 0)))
        assert ds.n_objects == 3
        assert ds.n_dims == 0
        assert ds.full_space == 0

    def test_stellar_yields_no_groups(self):
        """With no dimensions there are no non-empty subspaces, hence no
        skyline groups (Section 2 only defines non-trivial subspaces)."""
        ds = Dataset(values=np.empty((3, 0)))
        result = stellar(ds)
        assert result.groups == []
        assert result.seed_groups == []


class TestKeepVerdictBeyond62Dimensions:
    """The keep-verdict cases on object-dtype masks.

    62 constant columns go in front of the real ones, which move to bits 62
    and up.  Every object coincides on the padding, so each group gains it
    in its maximal subspace and keeps its decisive subspaces shifted, and
    all objects form one more group on the padding.  The exponential oracle
    runs on the unpadded rows.
    """

    PAD = 62

    @pytest.mark.parametrize("rows, cgroup, kept", KEEP_CASES)
    def test_verdict_and_groups_match_the_oracle(self, rows, cgroup, kept):
        low = Dataset.from_rows(rows)
        wide = Dataset(
            values=np.hstack([np.zeros((low.n_objects, self.PAD)), low.values])
        )
        padding = (1 << self.PAD) - 1
        members, subspace = cgroup
        cgroup = (members, subspace << self.PAD | padding)

        seeds = compute_skyline(wide)
        matrices = PairwiseMatrices(wide, seeds)
        assert matrices.dom_row_array(0).dtype == object
        cgroups = enumerate_maximal_cgroups(matrices)
        assert cgroup in cgroups
        verdicts = {
            (g.local_members, g.subspace): g
            for g in compute_seed_groups(wide, matrices, cgroups)
        }
        assert (cgroup in verdicts) == kept
        if kept and len(members) == len(seeds):
            assert verdicts[cgroup].decisive == singleton_decisive(cgroup[1])

        lifted = {
            (members, sub << self.PAD | padding, tuple(c << self.PAD for c in dec))
            for members, sub, dec in group_signatures(naive_compressed_cube(low))
        }
        # All objects coincide on the padding alone and no object is
        # outside, so every padding dimension is decisive for them.
        lifted.add(
            (tuple(range(low.n_objects)), padding, singleton_decisive(padding))
        )
        assert group_signatures(stellar(wide).groups) == lifted


class TestBeyond62Dimensions:
    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(7)
        return Dataset(values=rng.integers(0, 3, size=(7, 70)).astype(float))

    @pytest.fixture(scope="class")
    def wide_result(self, wide):
        return stellar(wide)

    def test_stellar_runs(self, wide, wide_result):
        result = wide_result
        assert result.groups
        assert result.seeds == compute_skyline(wide, algorithm="brute")

    def test_groups_are_definitionally_valid(self, wide, wide_result):
        result = wide_result
        for g in result.groups:
            members = sorted(g.members)
            assert is_maximal_cgroup(wide, members, g.subspace)
            assert is_skyline_member(wide.minimized, members[0], g.subspace)
            assert list(g.decisive) == decisive_subspaces_theorem4(
                wide, members, g.subspace
            )

    def test_every_seed_owns_a_full_space_singleton_or_bound_group(
        self, wide, wide_result
    ):
        result = wide_result
        full = wide.full_space
        covered = set()
        for g in result.groups:
            if g.subspace == full:
                covered.update(g.members)
        assert set(result.seeds) <= covered

    def test_masks_are_python_ints(self, wide, wide_result):
        result = wide_result
        for g in result.groups:
            assert type(g.subspace) is int
            assert all(type(c) is int for c in g.decisive)
            assert g.subspace.bit_length() <= 70

    #: Subspaces with bits above 2^62, plus the full space (= None).
    WIDE_MASKS = (
        1 << 69,
        1 << 63 | 1 << 2,
        1 << 62 | 1 << 65 | 1,
        (1 << 70) - 1 - (1 << 40),
        None,
    )

    def test_query_engine_past_62_dims(self, wide, wide_result):
        engine = QueryEngine(CompressedSkylineCube(wide, wide_result.groups))

        def brute(mask):
            return [
                wide.labels[i] for i in compute_skyline(wide, mask, algorithm="brute")
            ]

        for mask in self.WIDE_MASKS:
            mask = wide.full_space if mask is None else mask
            name = wide.format_subspace(mask)
            assert engine.skyline(name) == brute(mask), name
        for mask in self.WIDE_MASKS[:3]:
            name = wide.format_subspace(mask)
            drilled = engine.drill_down(name)
            assert len(drilled) == 70 - bin(mask).count("1")
            for d in range(70):
                if not mask >> d & 1:
                    bigger = mask | 1 << d
                    assert drilled[wide.format_subspace(bigger)] == brute(bigger)
            rolled = engine.roll_up(name)
            for d in range(70):
                smaller = mask & ~(1 << d)
                if mask >> d & 1 and smaller:
                    assert rolled[wide.format_subspace(smaller)] == brute(smaller)

    def test_cube_at_rest_past_63_dims(self, tmp_path, wide, wide_result):
        """Store publish/load, HTTP publish and save/load keep > 63-bit masks."""
        cube = CompressedSkylineCube(wide, wide_result.groups)
        expected = cube_fingerprint(cube)
        assert max(g.subspace for g in cube.groups).bit_length() > 63

        store = SnapshotStore(tmp_path / "snaps")
        store.publish("wide", wide, cube)
        _, stored, _ = store.load("wide")
        assert cube_fingerprint(stored) == expected

        save_csv(wide, tmp_path / "wide.csv")
        service = CubeService(store, reload_interval=0)
        status, payload, _ = service.handle_http(
            "POST",
            "/v1/snapshots/publish",
            {},
            {"name": "wide", "csv": (tmp_path / "wide.csv").read_text()},
        )
        assert status == 200, payload
        _, served, _ = store.load("wide")
        assert cube_fingerprint(served) == expected
        mask = 1 << 69 | 1 << 63 | 1
        status, payload, _ = service.handle_http(
            "GET", "/v1/skyline", {"subspace": [wide.format_subspace(mask)]}, {}
        )
        assert status == 200, payload
        assert payload["cube_version"] == "wide@v000002"
        assert payload["result"] == [
            wide.labels[i] for i in compute_skyline(wide, mask, algorithm="brute")
        ]
        service.close()

        save_cube(cube, tmp_path / "wide.bin")
        loaded = load_cube(tmp_path / "wide.bin")
        assert cube_fingerprint(loaded) == expected
        assert [(g.key, g.decisive, g.projection) for g in loaded.groups] == [
            (g.key, g.decisive, g.projection) for g in cube.groups
        ]

    def test_share_map_join_matches_brute_force(self):
        """The Theorem-5 share-map join on the object-dtype ``pow2`` path."""
        rng = np.random.default_rng(13)
        d = 70
        ns_matrix = rng.integers(0, 3, size=(25, d)).astype(float)
        reps = rng.integers(0, 3, size=(6, d)).astype(float)
        subspaces = np.array(
            [(1 << d) - 1, 1 << 69, 1 << 63 | 1 << 2, (1 << d) - 1 - (1 << 40),
             1 << 62 | 1 << 65 | 1, 0b111],
            dtype=object,
        )
        ns_ids = np.arange(100, 125, dtype=np.int64)
        pow2 = np.array([1 << k for k in range(d)], dtype=object)
        got = _share_maps_block(reps, subspaces, ns_matrix, ns_ids, pow2)
        expected = []
        for rep, subspace in zip(reps, subspaces):
            shares = {}
            for row, ns_id in zip(ns_matrix, ns_ids):
                dims = [k for k in range(d) if subspace >> k & 1]
                share = sum(1 << k for k in dims if row[k] == rep[k])
                beat = sum(1 << k for k in dims if row[k] < rep[k])
                if share and not beat:
                    shares[int(ns_id)] = share
            expected.append(shares)
        assert any(expected)
        assert [list(g.items()) for g in got] == [list(e.items()) for e in expected]
        assert all(type(m) is int for g in got for m in g.values())

    def test_ties_across_the_wide_space(self):
        """Two objects sharing 65 of 70 dimensions: the shared-subspace
        group must appear with a > 62-bit maximal subspace mask."""
        rng = np.random.default_rng(9)
        base = rng.integers(0, 5, size=70).astype(float)
        a = base.copy()
        b = base.copy()
        b[:5] = base[:5] + 1  # b worse on dims 0-4, ties elsewhere
        spoiler = base + 2  # dominated by both, ties nobody... shares none
        ds = Dataset(values=np.vstack([a, b, spoiler]))
        result = stellar(ds)
        shared_mask = ((1 << 70) - 1) & ~((1 << 5) - 1)
        by_members = {tuple(sorted(g.members)): g for g in result.groups}
        assert (0, 1) in by_members
        assert by_members[(0, 1)].subspace == shared_mask
