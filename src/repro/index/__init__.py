"""Index substrate: the SUBSKY subspace-skyline index.

Reference [13] of the paper (Tao, Xiao, Pei: *SUBSKY*, ICDE 2006) is the
alternative the related-work section contrasts with cube materialisation:
instead of precomputing all subspace skylines, index the objects once so
that *any* subspace skyline can be computed on the fly.
:mod:`repro.index.subsky` is a sound reconstruction of the single-anchor
SUBSKY idea: points sorted by a dominance-monotone key with an
early-termination threshold per query.  SUBSKY stores the keys in a
B+-tree; the index here is only bulk-loaded and scanned in key order, so a
sorted list gives the same scan.

The latency benchmark (`benchmarks/bench_query_latency.py`) then stages
the comparison the paper's Section 3 sketches: materialised compressed
cube (this paper) vs. on-the-fly index (Subsky) vs. raw per-query skyline.
"""

from .subsky import SubskyIndex

__all__ = ["SubskyIndex"]
