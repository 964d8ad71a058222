"""Workload data: synthetic generators, the NBA-like table, CSV I/O.

The evaluation section uses (a) the Great NBA Players table and (b) the
three classical synthetic distributions of the Borzsonyi et al. generator.
Neither ships with this repository -- the NBA table is not redistributable
and the original generator is C++ -- so this package rebuilds both:

* :mod:`repro.data.generators` -- correlated / independent ("equally
  distributed") / anti-correlated datasets, with the paper's 4-decimal
  truncation for value coincidence;
* :mod:`repro.data.nba` -- a synthetic career-statistics table with the
  same shape characteristics as the real one (strongly correlated integer
  counting stats, MAX preference, heavy low-end value sharing);
* :mod:`repro.data.io` -- CSV persistence with schema headers.
"""

from .generators import (
    generate_anticorrelated,
    generate_correlated,
    generate_independent,
    make_dataset,
    truncate_decimals,
)
from .io import load_csv, save_csv
from .nba import NBA_DIMENSIONS, generate_nba_like

__all__ = [
    "generate_correlated",
    "generate_independent",
    "generate_anticorrelated",
    "truncate_decimals",
    "make_dataset",
    "generate_nba_like",
    "NBA_DIMENSIONS",
    "save_csv",
    "load_csv",
]
