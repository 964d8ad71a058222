"""SkyCube substrate: skylines of *all* non-empty subspaces.

The SkyCube (Yuan et al., VLDB 2005) materialises the skyline of every
non-empty subspace.  The paper uses its size -- the total number of
(object, subspace) skyline memberships -- as the yardstick that skyline
groups compress (Figures 9 and 10, counted by
:meth:`~repro.cube.compressed.CompressedSkylineCube.summary`), and its
computation is the engine inside the Skyey baseline.

* :mod:`repro.skycube.naive` -- one independent skyline query per subspace;
* :mod:`repro.skycube.traversal` -- the one depth-first traversal, with
  every object scanned in every subspace (:func:`skycube_shared`, the
  strategy Skyey uses) or
  parent-candidate pruning (:func:`skycube_topdown`, the TDS idea of the
  SkyCube paper with exact tie handling).
"""

from .naive import skycube_naive
from .traversal import SubspaceSearch, skycube_shared, skycube_topdown

__all__ = [
    "SubspaceSearch",
    "skycube_naive",
    "skycube_shared",
    "skycube_topdown",
]
