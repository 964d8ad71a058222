"""The elimination filter ahead of the skyline kernels, against brute force.

:func:`~repro.skyline.numpy_skyline.skyline_rows` first drops rows that
one of the head's own skyline rows dominates, then picks a kernel by the
survivor count.  These properties check its answers, through
:func:`compute_skyline` and the Skyey traversal, on the inputs where a
filter goes wrong: ties, exact duplicates, ``0.0`` beside ``-0.0``, sizes
around the head, and survivor counts around the kernel cut.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skycube.traversal import SubspaceSearch
from repro.skyline import compute_skyline, skyline_brute
from repro.skyline.numpy_skyline import (
    BITSET_MAX_ROWS,
    FILTER_HEAD,
    _filtered,
    skyline_numpy,
)

H = FILTER_HEAD


@st.composite
def tie_heavy_matrices(draw, sizes=st.integers(1, 3 * H)):
    """Small integer domains, duplicated rows and signed zeros."""
    n = draw(sizes)
    d = draw(st.integers(1, 5))
    domain = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, domain + 1, size=(n, d)).astype(float)
    if draw(st.booleans()):
        # Exact duplicates: every row is a copy of one of a few.
        pool = pool[rng.integers(0, max(1, n // 4), size=n)]
    # -0.0 equals 0.0, so it must neither dominate nor be dominated by it.
    flip = (pool == 0.0) & (rng.random(pool.shape) < 0.5)
    pool[flip] = -0.0
    return pool


def _every_subspace(d: int):
    return range(1, 1 << d)


@settings(max_examples=60, deadline=None)
@given(tie_heavy_matrices())
def test_compute_skyline_in_every_subspace(m):
    for subspace in _every_subspace(m.shape[1]):
        expected = skyline_brute(m, subspace)
        assert compute_skyline(m, subspace) == expected
        assert compute_skyline(m, subspace, algorithm="numpy") == expected


@settings(max_examples=40, deadline=None)
@given(tie_heavy_matrices(sizes=st.sampled_from([H - 1, H, H + 1])))
def test_sizes_around_the_head(m):
    for subspace in _every_subspace(m.shape[1]):
        assert skyline_numpy(m, subspace) == skyline_brute(m, subspace)


@settings(max_examples=30, deadline=None)
@given(tie_heavy_matrices(), st.booleans(), st.booleans())
def test_traversal_in_every_subspace(m, share_sort_keys, candidate_pruning):
    search = SubspaceSearch(
        m, share_sort_keys=share_sort_keys, candidate_pruning=candidate_pruning
    )
    nodes = {subspace: skyline.tolist() for subspace, skyline in search.nodes()}
    assert sorted(nodes) == list(_every_subspace(m.shape[1]))
    for subspace, skyline in nodes.items():
        assert skyline == skyline_brute(m, subspace)


def filtered_input(survivors: int, d: int, domain: int, extra: int, seed: int):
    """An input whose filter runs and leaves exactly ``survivors`` rows.

    The head is the zero row and ``H - 1`` unit rows it dominates, so the
    zero row is the one filter point and the pass has one round.  Then
    come ``survivors - 1`` rows with a negative first value (no filter
    point dominates them, and they tie heavily among themselves) and
    ``extra`` rows the zero row dominates.  Every non-head row has a
    coordinate sum above the head's.
    """
    rng = np.random.default_rng(seed)
    zero = np.zeros((1, d))
    zero[0, rng.random(d) < 0.5] = -0.0
    units = np.eye(d)[np.arange(H - 1) % d]
    kept = 100.0 + rng.integers(0, domain + 1, size=(survivors - 1, d))
    kept[:, 0] = -1.0 - rng.integers(0, domain + 1, size=survivors - 1)
    dominated = 100.0 + rng.integers(0, domain + 1, size=(extra, d))
    m = np.vstack([kept, units, dominated, zero])
    return m[rng.permutation(len(m))]


@settings(max_examples=9, deadline=None)
@given(
    st.sampled_from([-1, 0, 1]),
    st.integers(2, 3),
    st.integers(1, 3),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
def test_survivor_counts_around_the_bitset_cut(offset, d, domain, extra, seed):
    survivors = BITSET_MAX_ROWS + offset
    m = filtered_input(survivors, d, domain, extra, seed)
    assert _filtered(m).size == survivors
    expected = skyline_brute(m, None)
    assert compute_skyline(m) == expected
    assert skyline_numpy(m) == expected


def test_float_ties_across_a_chunk_boundary():
    """A row and its dominator may round to the same coordinate sum.

    ``v`` is dominated by ``u`` but ``sum(u) == sum(v)`` in floating
    point, and ``v`` comes first among rows with that sum.  An order by the
    sum alone would put ``v`` in an earlier chunk than ``u`` and accept it.
    """
    n = BITSET_MAX_ROWS + 100
    first = np.arange(1, n + 1, dtype=float)
    m = np.column_stack([first, n + 1 - first])  # every sum is n + 1
    u = m[-1]  # (n, 1.0)
    v = u + [0.0, 2.0**-45]
    assert v.sum() == u.sum()
    m = np.vstack([v, m])
    expected = skyline_brute(m, None)
    assert 0 not in expected
    assert skyline_numpy(m) == expected


def test_traversal_scans_by_true_sums_not_derived_keys():
    """A child's sort keys derived as the parent's sums minus the dropped
    column can be non-monotone under rounding: here ``u`` dominates ``v``
    on dimensions {0, 1} but gets the larger derived key, so a scan in
    that order, with ``v`` a chunk ahead, would keep ``v``.
    """
    n = BITSET_MAX_ROWS + 2_000
    first = np.arange(n, dtype=float)
    # Incomparable on {0, 1}, with distinct sums there.
    m = np.column_stack([first, 3 * n - 2 * first + 0.5, np.zeros(n)])
    v = m[n // 2]
    u = v + [0.0, -1.0, 2.0**60]
    m = np.vstack([m, u])
    derived = m.sum(axis=1) - m[:, 2]
    assert derived[-1] > derived[n // 2]
    nodes = dict(SubspaceSearch(m, share_sort_keys=True).nodes())
    expected = skyline_brute(m, 0b011)
    assert n // 2 not in expected
    assert nodes[0b011].tolist() == expected
