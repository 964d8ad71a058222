"""Cube fingerprints of the inputs that guard Stellar's answers.

Usage::

    python benchmarks/fingerprints.py [--check]

Prints one ``name  cube_fingerprint`` line per input: the four benchmark
workload bases, tie-heavy inputs on an 8-step grid, exact duplicates,
inputs whose masks sit above bit 62, both sides of the 16-dimension route
cut-over, enough seeds on enough dimensions that rank codes and packed
cells are both 16-bit, and signed zeros.  A change that must not move any
answer leaves every line as it was, so the output of two commits can be
diffed (``PYTHONPATH=<other checkout>/src`` runs this script against
another commit's library).

``--check`` also builds the brute-force cube of every input marked small
and compares its groups (members, maximal and decisive subspaces and
projections) with Stellar's; the exit status is 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

import numpy as np

from repro.baselines.naive_cube import naive_compressed_cube
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.cube import CompressedSkylineCube
from repro.cube.io import cube_fingerprint
from repro.data import make_dataset

#: The benchmark workloads' base seed.
SEED = 20070415


def _base(distribution: str, n: int, d: int) -> Dataset:
    """A generated input as the benchmark workloads make their bases."""
    return make_dataset(distribution, n, d, seed=SEED)


def _grid(distribution: str, n: int, d: int, steps: int, seed: int = 1) -> Dataset:
    """A generated input rounded onto ``steps`` values per dimension."""
    values = make_dataset(distribution, n, d, seed=seed).values
    return Dataset(values=np.round(values * steps))


def _duplicates(n: int, d: int, repeats: int) -> Dataset:
    """Values 0–4, plus ``repeats`` rows copied from the first ones."""
    rng = np.random.default_rng(7)
    base = rng.integers(0, 5, size=(n, d)).astype(float)
    return Dataset(values=np.vstack([base, base[rng.integers(0, n, repeats)]]))


def _wide_8x66() -> Dataset:
    """8 rows of 0/1 on 66 dimensions; dimension 64 splits them in two."""
    rng = np.random.default_rng(24)
    rng.integers(0, 4, size=(4, 3))
    wide = rng.integers(0, 2, size=(8, 66)).astype(float)
    wide[:, 62:] = 0.0
    wide[:, 64] = np.arange(8) % 2
    return Dataset(values=wide)


def _wide_200x66() -> Dataset:
    """62 constant columns ahead of anti-correlated 200×4 on 11 values."""
    tail = np.round(make_dataset("anticorrelated", 200, 4, seed=1).values * 10)
    return Dataset(values=np.hstack([np.zeros((200, 62)), tail]))


def _signed_zeros(n: int, d: int) -> Dataset:
    """Values 0–3 with about half of the zeros written as ``-0.0``."""
    rng = np.random.default_rng(11)
    values = rng.integers(0, 4, size=(n, d)).astype(float)
    values[(values == 0) & (rng.random((n, d)) < 0.5)] = -0.0
    return Dataset(values=values)


#: name -> (builder, small enough for the brute-force cube).
INPUTS: dict[str, tuple[Callable[[], Dataset], bool]] = {
    "build-equal base": (lambda: _base("independent", 50_000, 4), False),
    "build-anti base": (lambda: _base("anticorrelated", 2_000, 6), False),
    "serve-read base": (lambda: _base("independent", 10_000, 6), False),
    "serve-churn base": (lambda: _base("independent", 2_000, 5), False),
    "tie-heavy guard 3000x6": (lambda: _grid("anticorrelated", 3_000, 6, 8), False),
    "tie-heavy anti 60x5": (lambda: _grid("anticorrelated", 60, 5, 8), True),
    "tie-heavy anti 3000x5": (lambda: _grid("anticorrelated", 3_000, 5, 8), False),
    "tie-heavy anti 6000x4": (lambda: _grid("anticorrelated", 6_000, 4, 8), False),
    "tie-heavy 0-2 40x6": (lambda: _grid("independent", 40, 6, 2), True),
    "duplicates 300x4+160": (lambda: _duplicates(300, 4, 160), True),
    "duplicates 6000x4+1000": (lambda: _duplicates(6_000, 4, 1_000), False),
    "wide 8x66": (_wide_8x66, False),
    "wide 200x66": (_wide_200x66, False),
    "independent 120x16": (lambda: _grid("independent", 120, 16, 6), False),
    "independent 120x17": (lambda: _grid("independent", 120, 17, 6), False),
    "anti 120x16": (lambda: _grid("anticorrelated", 120, 16, 6), False),
    "anti 120x17": (lambda: _grid("anticorrelated", 120, 17, 6), False),
    "anti 1500x10": (lambda: _base("anticorrelated", 1_500, 10), False),
    "anti 6000x4": (lambda: _base("anticorrelated", 6_000, 4), False),
    "correlated 6000x6": (lambda: _base("correlated", 6_000, 6), False),
    "signed zeros 300x3": (lambda: _signed_zeros(300, 3), True),
    "signed zeros 5000x3": (lambda: _signed_zeros(5_000, 3), False),
}


def _groups(groups) -> list:
    return sorted((g.key, g.decisive, g.projection) for g in groups)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="also compare Stellar with the brute-force cube on the small inputs",
    )
    args = parser.parse_args(argv)
    mismatches = []
    for name, (build, small) in INPUTS.items():
        dataset = build()
        groups = stellar(dataset).groups
        print(f"{name:30s} {cube_fingerprint(CompressedSkylineCube(dataset, groups))}")
        if args.check and small:
            if _groups(groups) != _groups(naive_compressed_cube(dataset)):
                mismatches.append(name)
    for name in mismatches:
        print(f"error: {name}: Stellar's groups differ from the brute-force cube")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
