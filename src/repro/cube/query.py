"""Label-based query front end over the compressed cube, fully observed.

:class:`QueryEngine` wraps a :class:`~repro.cube.compressed.CompressedSkylineCube`
with the dataset's human-facing vocabulary: dimension *names* instead of
bitmasks and object *labels* instead of indices, so application code reads
like the paper's flight-ticket narrative::

    engine.skyline("price,traveltime")      -> ["RouteA", "RouteC"]
    engine.where_wins("RouteC")             -> ["price", "price,stops", ...]

Every query is observed (docs/OBSERVABILITY.md, *Serving observability*):
it runs under a ``query.<family>.<kind>`` tracing span, feeds the
``query.*`` metrics (latency histograms, per-counter totals), offers its
span to the slow-query log, and produces a :class:`QueryPlan` describing *how*
it was resolved -- which of the paper's three resolution routes answered
it (a decisive-subspace hit, a walk over the membership lattice, or the
Theorem-5-style dominance fallback), how many groups were touched, and how
many comparisons were made.  :meth:`QueryEngine.explain` returns that plan
directly; the plan's counters are, by construction, exactly the deltas the
metrics registry records for the same query.

Q1 and Q3 scans run over a :class:`GroupIndex`, the cube's groups laid out
as flat numpy arrays plus packed uint64 membership bitmaps: a skyline
query over 845 groups takes 187 us against 480 us for a per-group Python
loop (2 vCPU, numpy 2.4), whose plan counters the index reproduces exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..core.bitset import iter_bits
from ..core.dominance import COMPARISONS
from ..core.types import Dataset, SkylineGroup
from ..obs.context import current_trace_context
from ..obs.logging import get_logger
from ..obs.metrics import registry
from ..obs.slowlog import slow_query_log
from ..obs.tracing import Tracer, current_tracer
from .compressed import CompressedSkylineCube

__all__ = [
    "GroupIndex",
    "PLAN_COUNTERS",
    "QueryEngine",
    "QueryPlan",
    "ScanResult",
    "pack_bitmap",
    "unpack_bitmap",
]

# Latency histograms, one per query family (handles survive metric resets).
_Q1_LATENCY = registry().histogram("query.q1.seconds")
_Q2_LATENCY = registry().histogram("query.q2.seconds")
_Q3_LATENCY = registry().histogram("query.q3.seconds")
_LATENCY = {"q1": _Q1_LATENCY, "q2": _Q2_LATENCY, "q3": _Q3_LATENCY}

#: Per-query work counters; each also exists in the metrics registry as
#: ``query.<name>`` and every query increments registry and plan by the
#: same amounts (that equality is what ``--explain`` exposes and tests pin).
PLAN_COUNTERS = (
    "groups_considered",
    "groups_matched",
    "interval_checks",
    "subspaces_enumerated",
    "dominance_comparisons",
)

_LOG = get_logger("query")


@dataclass
class QueryPlan:
    """How one query was resolved: strategy, work counters, result shape.

    Strategies (the three resolution routes of the compressed cube):

    ``decisive-scan``
        Q1: scan every group summary for interval containment
        (``C ⊆ A ⊆ B``); no data access.
    ``decisive-hit`` / ``group-miss``
        Point membership: the first covering group answers positively; a
        miss means no group of the object covers the subspace.
    ``lattice-walk``
        Q2/Q3 enumeration: materialise the subspace intervals of the
        membership lattice.
    ``theorem5-fallback``
        The group summary cannot *witness* a negative why-not answer, so
        dominators are recomputed from the data with direct dominance
        tests (the same classification step Theorem 5 uses for non-seeds).
    ``group-lookup`` / ``lattice-neighbors``
        Direct group-index reads and one-step drill/roll navigation.
    """

    kind: str
    family: str
    argument: str
    strategy: str = ""
    counters: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in PLAN_COUNTERS}
    )
    result_size: int = 0
    seconds: float = 0.0
    detail: dict = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        """Accumulate into one of the :data:`PLAN_COUNTERS`."""
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def comparisons(self) -> int:
        """Total comparisons: interval containment checks + dominance tests."""
        return (
            self.counters["interval_checks"]
            + self.counters["dominance_comparisons"]
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation (what the slow-query log retains)."""
        return {
            "kind": self.kind,
            "family": self.family,
            "argument": self.argument,
            "strategy": self.strategy,
            "counters": dict(self.counters),
            "result_size": self.result_size,
            "seconds": self.seconds,
            "detail": dict(self.detail),
        }

    def render(self) -> str:
        """Pretty EXPLAIN text (what ``repro query ... --explain`` prints)."""
        c = self.counters
        lines = [
            f"EXPLAIN {self.family}.{self.kind}({self.argument})",
            f"  strategy:              {self.strategy}",
            f"  groups considered:     {c['groups_considered']}"
            f"  (matched: {c['groups_matched']})",
            f"  interval checks:       {c['interval_checks']}",
            f"  subspaces enumerated:  {c['subspaces_enumerated']}",
            f"  dominance comparisons: {c['dominance_comparisons']}",
            f"  result size:           {self.result_size}",
            f"  elapsed:               {self.seconds * 1e3:.3f} ms",
        ]
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def pack_bitmap(indices, n: int) -> np.ndarray:
    """Pack object indices into a little-endian uint64 bitmap of ``n`` bits."""
    flags = np.zeros(n, dtype=bool)
    if len(indices):
        flags[np.asarray(list(indices), dtype=np.int64)] = True
    words = (n + 63) // 64
    packed = np.packbits(flags, bitorder="little")
    out = np.zeros(words * 8, dtype=np.uint8)
    out[: packed.size] = packed
    return out.view(np.uint64)


def unpack_bitmap(words: np.ndarray, n: int) -> np.ndarray:
    """Indices of the set bits of a bitmap produced by :func:`pack_bitmap`."""
    bits = np.unpackbits(words.view(np.uint8), count=n, bitorder="little")
    return np.flatnonzero(bits)


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one :meth:`GroupIndex.scan`."""

    #: Sorted global indices of the union of matched groups' members.
    members: np.ndarray
    groups_considered: int
    groups_matched: int
    interval_checks: int


class GroupIndex:
    """A cube's skyline groups as flat arrays, for vectorized Q1/Q3 scans.

    One scan is four numpy passes:

    1. candidate groups: ``(mask & ~subspaces) == 0``;
    2. decisive hits: ``(dec_flat & ~mask) == 0`` over the flattened
       decisive lists (CSR layout, ``dec_off`` offsets);
    3. segmented first hit: where a per-group loop over the decisive
       subspaces would short-circuit, in one ``searchsorted`` pass;
    4. member union: ``np.bitwise_or.reduce`` over the matched rows of the
       packed membership bitmaps.

    The counters equal those of the per-group loop: a candidate group that
    matches on its ``k``-th decisive subspace contributes ``k`` interval
    checks, a candidate that never matches contributes all of them, and a
    non-candidate contributes none.  Masks are int64 up to 62 dimensions
    and Python ints in object arrays beyond, as in
    :class:`~repro.core.dominance.PairwiseMatrices`.
    """

    def __init__(self, n_objects: int, n_dims: int, groups: list[SkylineGroup]):
        self.n_objects = int(n_objects)
        self.n_groups = len(groups)
        mask_dtype = np.int64 if n_dims <= 62 else object
        self.subspaces = np.array(
            [g.subspace for g in groups], dtype=mask_dtype
        ).reshape(self.n_groups)
        lengths = np.array(
            [len(g.decisive) for g in groups], dtype=np.int64
        ).reshape(self.n_groups)
        self.dec_off = np.zeros(self.n_groups + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.dec_off[1:])
        self.dec_flat = np.array(
            [c for g in groups for c in g.decisive], dtype=mask_dtype
        ).reshape(int(self.dec_off[-1]))
        words = (self.n_objects + 63) // 64
        self.bitmaps = np.zeros((self.n_groups, words), dtype=np.uint64)
        for gi, group in enumerate(groups):
            self.bitmaps[gi] = pack_bitmap(sorted(group.members), self.n_objects)

    def scan(self, mask: int) -> ScanResult:
        """Members of every group covering ``mask``, with plan counters."""
        if self.n_groups == 0:
            return ScanResult(
                members=np.zeros(0, dtype=np.int64),
                groups_considered=0,
                groups_matched=0,
                interval_checks=0,
            )
        candidates = (mask & ~self.subspaces) == 0
        hits = (self.dec_flat & ~mask) == 0
        hit_idx = np.flatnonzero(hits)
        # Segment (= group) of each hit, then its first occurrence.
        grp = np.searchsorted(self.dec_off[1:], hit_idx, side="right")
        first_hit = np.full(self.n_groups, -1, dtype=np.int64)
        if hit_idx.size:
            keep = np.ones(hit_idx.size, dtype=bool)
            keep[1:] = grp[1:] != grp[:-1]
            first_hit[grp[keep]] = hit_idx[keep]
        matched = candidates & (first_hit >= 0)
        seg_len = self.dec_off[1:] - self.dec_off[:-1]
        checks = np.where(
            first_hit >= 0, first_hit - self.dec_off[:-1] + 1, seg_len
        )
        checks = np.where(candidates, checks, 0)
        if matched.any():
            union = np.bitwise_or.reduce(self.bitmaps[matched], axis=0)
            members = unpack_bitmap(union, self.n_objects)
        else:
            members = np.zeros(0, dtype=np.int64)
        return ScanResult(
            members=members,
            groups_considered=self.n_groups,
            groups_matched=int(matched.sum()),
            interval_checks=int(checks.sum()),
        )


class QueryEngine:
    """Name/label-level access to a compressed skyline cube."""

    def __init__(self, cube: CompressedSkylineCube):
        self.cube = cube
        self.dataset: Dataset = cube.dataset
        self._group_index: GroupIndex | None = None
        self._label_to_index = {
            label: i for i, label in enumerate(self.dataset.labels)
        }
        #: Plan of the most recently completed query (diagnostics).
        self.last_plan: QueryPlan | None = None

    @classmethod
    def build(cls, dataset: Dataset, algorithm: str = "stellar") -> "QueryEngine":
        """Compute the cube for ``dataset`` and wrap it in an engine."""
        return cls(CompressedSkylineCube.build(dataset, algorithm=algorithm))

    # -- observation -------------------------------------------------------

    @contextmanager
    def _observed(self, kind: str, family: str, argument: str):
        """Run one query observed: span, metrics, slow-query log, plan.

        Yields the :class:`QueryPlan` under construction; the body fills
        ``strategy``, ``result_size`` and the work counters.  On exit the
        plan's counters are mirrored 1:1 into the metrics registry (so
        registry deltas equal the plan) and onto the span, the family
        latency histogram gets exactly one observation, and the finished
        span is offered to the process-global slow-query log.
        """
        plan = QueryPlan(kind=kind, family=family, argument=argument)
        reg = registry()
        comparisons_before = COMPARISONS.value
        # The slow log keeps this span, so record it even without ambient
        # tracing (the same pattern as ``stellar()``).
        tracer = current_tracer() or Tracer()
        with tracer.span(f"query.{family}.{kind}", argument=argument) as sp:
            yield plan
            plan.count(
                "dominance_comparisons", COMPARISONS.value - comparisons_before
            )
            sp.annotate(strategy=plan.strategy, result_size=plan.result_size)
            ctx = current_trace_context()
            if ctx is not None and ctx.endpoint:
                sp.annotate(endpoint=ctx.endpoint)
            for name, value in plan.counters.items():
                if value:
                    sp.count(name, value)
        plan.seconds = sp.duration_seconds
        _LATENCY[family].observe(plan.seconds)
        reg.counter(f"query.{family}.count").inc()
        for name, value in plan.counters.items():
            if value:
                reg.counter(f"query.{name}").inc(value)
        reg.counter(f"query.strategy.{plan.strategy}").inc()
        slow_query_log().record(sp)
        self.last_plan = plan
        _LOG.debug(
            "query.served",
            extra={
                "kind": f"{family}.{kind}",
                "argument": argument,
                "strategy": plan.strategy,
                "seconds": round(plan.seconds, 6),
                "result_size": plan.result_size,
            },
        )

    def _scan_members(self, mask: int, plan: QueryPlan) -> list[int]:
        """Sorted members of every group covering ``mask``, counted.

        The :class:`GroupIndex` is built on the first scan, so mutations
        that replace the engine never pay for it.
        """
        if self._group_index is None:
            self._group_index = GroupIndex(
                self.dataset.n_objects, self.dataset.n_dims, self.cube.groups
            )
        scan = self._group_index.scan(mask)
        plan.count("groups_considered", scan.groups_considered)
        plan.count("groups_matched", scan.groups_matched)
        plan.count("interval_checks", scan.interval_checks)
        return [int(i) for i in scan.members]

    def _enumerate_intervals(self, obj: int, plan: QueryPlan) -> list[int]:
        """Materialise the membership lattice of ``obj``, counted.

        Mirrors :meth:`CompressedSkylineCube.membership_subspaces`; one
        ``subspaces_enumerated`` unit per interval element visited
        (overlapping intervals re-visit shared subspaces).
        """
        groups = self.cube.groups_of(obj)
        plan.count("groups_considered", len(groups))
        plan.count("interval_checks", sum(len(g.decisive) for g in groups))
        intervals = self.cube.membership_intervals(obj)
        plan.count("groups_matched", len(intervals))
        seen: set[int] = set()
        for iv in intervals:
            extra = iv.upper & ~iv.lower
            sub = extra
            while True:
                seen.add(iv.lower | sub)
                plan.count("subspaces_enumerated")
                if sub == 0:
                    break
                sub = (sub - 1) & extra
        return sorted(seen)

    # -- Q1 ---------------------------------------------------------------

    def skyline(self, subspace: str) -> list[str]:
        """Labels of the skyline objects of the named subspace."""
        with self._observed("skyline", "q1", subspace) as plan:
            mask = self.dataset.parse_subspace(subspace)
            self.cube._check_subspace(mask)
            plan.strategy = "decisive-scan"
            out = [
                self.dataset.labels[i] for i in self._scan_members(mask, plan)
            ]
            plan.result_size = len(out)
        return out

    # -- Q2 ---------------------------------------------------------------

    def where_wins(self, label: str) -> list[str]:
        """Every subspace (rendered with names) where the object is skyline."""
        with self._observed("where_wins", "q2", label) as plan:
            obj = self._resolve(label)
            plan.strategy = "lattice-walk"
            masks = self._enumerate_intervals(obj, plan)
            out = [self.dataset.format_subspace(m) for m in masks]
            plan.result_size = len(out)
        return out

    def wins_in(self, label: str, subspace: str) -> bool:
        """Is the object a skyline member of the named subspace?"""
        with self._observed("wins_in", "q2", f"{label} in {subspace}") as plan:
            obj = self._resolve(label)
            mask = self.dataset.parse_subspace(subspace)
            self.cube._check_subspace(mask)
            out = False
            for group in self.cube.groups_of(obj):
                plan.count("groups_considered")
                if mask & ~group.subspace:
                    continue
                for c in group.decisive:
                    plan.count("interval_checks")
                    if c & ~mask == 0:
                        out = True
                        plan.count("groups_matched")
                        break
                if out:
                    break
            plan.strategy = "decisive-hit" if out else "group-miss"
            plan.result_size = int(out)
        return out

    def signature_of(self, label: str) -> list[str]:
        """Paper-style signatures of every group containing the object."""
        with self._observed("signature_of", "q2", label) as plan:
            obj = self._resolve(label)
            plan.strategy = "group-lookup"
            groups = self.cube.groups_of(obj)
            plan.count("groups_considered", len(groups))
            plan.count("groups_matched", len(groups))
            out = [g.signature(self.dataset) for g in groups]
            plan.result_size = len(out)
        return out

    def why_not(self, label: str, subspace: str) -> str:
        """Human-readable explanation of the object's status in a subspace."""
        with self._observed("why_not", "q2", f"{label} in {subspace}") as plan:
            obj = self._resolve(label)
            mask = self.dataset.parse_subspace(subspace)
            plan.count("groups_considered", len(self.cube.groups_of(obj)))
            answer = self.cube.why_not(obj, mask)
            if answer.is_skyline:
                plan.strategy = "decisive-hit"
                plan.count("groups_matched")
                plan.result_size = 1
            else:
                plan.strategy = "theorem5-fallback"
                plan.result_size = len(answer.dominators)
                plan.detail["dominators"] = len(answer.dominators)
            out = answer.explain(self.dataset)
        return out

    # -- Q3 ---------------------------------------------------------------

    def drill_down(self, subspace: str) -> dict[str, list[str]]:
        """Skyline after adding each missing dimension to the subspace."""
        with self._observed("drill_down", "q3", subspace) as plan:
            mask = self.dataset.parse_subspace(subspace)
            self.cube._check_subspace(mask)
            plan.strategy = "lattice-neighbors"
            out: dict[str, list[str]] = {}
            for d in range(self.dataset.n_dims):
                if mask & (1 << d):
                    continue
                bigger = mask | (1 << d)
                out[self.dataset.format_subspace(bigger)] = [
                    self.dataset.labels[i]
                    for i in self._scan_members(bigger, plan)
                ]
            plan.result_size = len(out)
        return out

    def roll_up(self, subspace: str) -> dict[str, list[str]]:
        """Skyline after removing each dimension of the subspace."""
        with self._observed("roll_up", "q3", subspace) as plan:
            mask = self.dataset.parse_subspace(subspace)
            self.cube._check_subspace(mask)
            plan.strategy = "lattice-neighbors"
            out: dict[str, list[str]] = {}
            for d in iter_bits(mask):
                smaller = mask & ~(1 << d)
                if smaller == 0:
                    continue
                out[self.dataset.format_subspace(smaller)] = [
                    self.dataset.labels[i]
                    for i in self._scan_members(smaller, plan)
                ]
            plan.result_size = len(out)
        return out

    def top_frequent(self, k: int) -> list[tuple[str, int]]:
        """Top-k labels by skyline frequency (number of subspaces won)."""
        with self._observed("top_frequent", "q3", str(k)) as plan:
            if k < 0:
                raise ValueError(f"k must be non-negative, got {k}")
            plan.strategy = "lattice-walk"
            objects = sorted({m for g in self.cube.groups for m in g.members})
            frequencies = [
                (obj, len(self._enumerate_intervals(obj, plan)))
                for obj in objects
            ]
            frequencies.sort(key=lambda pair: (-pair[1], pair[0]))
            out = [
                (self.dataset.labels[obj], freq)
                for obj, freq in frequencies[:k]
            ]
            plan.result_size = len(out)
        return out

    # -- EXPLAIN -----------------------------------------------------------

    #: ``explain`` kinds -> the bound method and its arity.
    _EXPLAINABLE = {
        "skyline": ("skyline", 1),
        "where-wins": ("where_wins", 1),
        "wins-in": ("wins_in", 2),
        "signature-of": ("signature_of", 1),
        "why-not": ("why_not", 2),
        "drill-down": ("drill_down", 1),
        "roll-up": ("roll_up", 1),
        "top-frequent": ("top_frequent", 1),
    }

    def explain(self, kind: str, *args: object) -> QueryPlan:
        """Run one query and return its resolution plan.

        ``kind`` is the hyphenated query name (``"skyline"``,
        ``"where-wins"``, ``"wins-in"``, ``"why-not"``, ``"top-frequent"``,
        ...); ``args`` are the query's own arguments.  The query *does*
        execute (the plan is a faithful record, not an estimate), so the
        metrics registry advances by exactly the plan's counters.  The
        returned plan carries a preview of the result in
        ``detail["result_preview"]``.
        """
        key = kind.strip().lower().replace("_", "-")
        if key in ("q1",):
            key = "skyline"
        try:
            method_name, arity = self._EXPLAINABLE[key]
        except KeyError:
            known = ", ".join(sorted(self._EXPLAINABLE))
            raise ValueError(
                f"cannot explain {kind!r}; known queries: {known}"
            ) from None
        if len(args) != arity:
            raise ValueError(
                f"explain({key!r}) takes {arity} argument(s), got {len(args)}"
            )
        coerced = [int(a) if key == "top-frequent" else str(a) for a in args]
        result = getattr(self, method_name)(*coerced)
        plan = self.last_plan
        assert plan is not None  # _observed always sets it
        plan.detail["result_preview"] = _preview(result)
        return plan

    # -- internal -----------------------------------------------------------

    def _resolve(self, label: str) -> int:
        try:
            return self._label_to_index[label]
        except KeyError:
            raise ValueError(f"unknown object label {label!r}") from None


def _preview(result: object, limit: int = 8) -> str:
    """Short, single-line preview of a query result for EXPLAIN output."""
    if isinstance(result, bool):
        return str(result)
    if isinstance(result, dict):
        items = list(result)[:limit]
        more = "" if len(result) <= limit else f", ... +{len(result) - limit}"
        return "{" + ", ".join(str(i) for i in items) + more + "}"
    if isinstance(result, (list, tuple)):
        items = [str(i) for i in list(result)[:limit]]
        more = "" if len(result) <= limit else f", ... +{len(result) - limit}"
        return "[" + ", ".join(items) + more + "]"
    text = str(result)
    return text if len(text) <= 120 else text[:117] + "..."
