"""Full-space and subspace skyline algorithms (substrate).

The paper's Stellar algorithm needs one skyline computation in the full
space; its Skyey baseline needs one per subspace.  The registry holds
:mod:`~repro.skyline.bnl` (Borzsonyi et al., ICDE'01) and
:mod:`~repro.skyline.nn` (Kossmann et al., VLDB'02), which nothing runs,
and the three algorithms something runs:

* :func:`repro.skyline.base.skyline_brute` -- the quadratic reference every
  other algorithm is tested against;
* :mod:`repro.skyline.sfs` -- sort-first skyline (Chomicki et al.,
  ICDE'03), which ``auto`` picks for small inputs and the naive-cube
  oracle uses;
* :mod:`repro.skyline.numpy_skyline` -- the vectorised kernels (packed
  bitsets, then a chunked SFS scan) behind every build at scale.

All algorithms share one contract (see :mod:`repro.skyline.base`): they take
a *minimized* value matrix (smaller is better everywhere) plus a subspace
bitmask and return the sorted indices of the skyline objects, with the
paper's tie semantics (equal projections never dominate each other).

Beyond the classical operator, :mod:`repro.skyline.kdominant` implements
the k-dominant skyline relaxation (Chan et al., SIGMOD'06) from the
paper's related-work discussion.
"""

from .base import is_skyline_member, skyline_brute
from .kdominant import k_dominant_skyline, k_dominates
from .registry import SKYLINE_ALGORITHMS, compute_skyline

__all__ = [
    "compute_skyline",
    "SKYLINE_ALGORITHMS",
    "skyline_brute",
    "is_skyline_member",
    "k_dominant_skyline",
    "k_dominates",
]
