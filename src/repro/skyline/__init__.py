"""Full-space and subspace skyline algorithms (substrate).

The paper's Stellar algorithm needs one skyline computation in the full
space; its Skyey baseline needs one per subspace.  The registry holds three
algorithms:

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
"""

from .base import is_skyline_member, skyline_brute
from .registry import SKYLINE_ALGORITHMS, compute_skyline

__all__ = [
    "compute_skyline",
    "SKYLINE_ALGORITHMS",
    "skyline_brute",
    "is_skyline_member",
]
