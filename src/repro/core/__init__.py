"""Core concepts and the Stellar algorithm (the paper's contribution).

Modules
-------
* :mod:`repro.core.bitset` -- subspaces as dimension bitmasks
* :mod:`repro.core.types` -- :class:`Dataset`, :class:`SkylineGroup`
* :mod:`repro.core.dominance` -- dominance & coincidence matrices
* :mod:`repro.core.hitting` -- minimal hitting sets (minimum DNF)
* :mod:`repro.core.cgroups` -- maximal c-groups by agree-set closure (Figure 6)
* :mod:`repro.core.seeds` -- seed skyline groups (Theorem 3, Corollary 1)
* :mod:`repro.core.extension` -- non-seed accommodation (Theorem 5)
* :mod:`repro.core.stellar` -- the Stellar driver (Figure 7)
* :mod:`repro.core.lattice` -- skyline-group lattices (Theorem 2)
* :mod:`repro.core.validate` -- definitional predicates (the oracle)
"""

from .stellar import StellarResult, StellarStats, stellar
from .types import Dataset, Direction, SkylineGroup

__all__ = [
    "Dataset",
    "Direction",
    "SkylineGroup",
    "stellar",
    "StellarResult",
    "StellarStats",
]
