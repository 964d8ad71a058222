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

Every answer comes from the cube (:mod:`repro.cube.compressed`), and the
engine derives the plan counters from what the cube returns: a
:class:`~repro.cube.compressed.ScanResult` per subspace scan, a
:class:`~repro.cube.compressed.MembershipProbe` per point membership, and
the groups and :class:`~repro.cube.compressed.MembershipInterval` sizes of
a lattice walk.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..core.dominance import COMPARISONS
from ..core.types import Dataset
from ..obs.context import current_trace_context
from ..obs.logging import get_logger
from ..obs.metrics import registry
from ..obs.slowlog import slow_query_log
from ..obs.tracing import Tracer, current_tracer
from .compressed import (
    CompressedSkylineCube,
    GroupIndex,
    ScanResult,
    pack_bitmap,
    unpack_bitmap,
)

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


class QueryEngine:
    """Name/label-level access to a compressed skyline cube."""

    def __init__(self, cube: CompressedSkylineCube):
        self.cube = cube
        self.dataset: Dataset = cube.dataset
        self._label_to_index = {
            label: i for i, label in enumerate(self.dataset.labels)
        }
        #: Plan of the most recently completed query (diagnostics).
        self.last_plan: QueryPlan | None = None

    @classmethod
    def build(cls, dataset: Dataset) -> "QueryEngine":
        """Compute the cube for ``dataset`` with Stellar and wrap it."""
        return cls(CompressedSkylineCube.build(dataset))

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

    def _count_scan(self, plan: QueryPlan, scan: ScanResult) -> list[str]:
        """Count one subspace scan; the labels of its members."""
        plan.count("groups_considered", scan.groups_considered)
        plan.count("groups_matched", scan.groups_matched)
        plan.count("interval_checks", scan.interval_checks)
        return [self.dataset.labels[i] for i in scan.members.tolist()]

    def _count_walk(self, plan: QueryPlan, obj: int) -> None:
        """Count one membership-lattice walk of ``obj``.

        Every decisive subspace of every group holding ``obj`` is checked;
        each kept interval is matched and enumerated in full, so
        overlapping intervals re-visit shared subspaces.
        """
        groups = self.cube.groups_of(obj)
        intervals = self.cube.membership_intervals(obj)
        plan.count("groups_considered", len(groups))
        plan.count("interval_checks", sum(len(g.decisive) for g in groups))
        plan.count("groups_matched", len(intervals))
        plan.count("subspaces_enumerated", sum(iv.size() for iv in intervals))

    def _neighbours(self, subspace: str, finer: bool) -> dict[str, list[str]]:
        """Skylines one dimension away, by name (Q3), counted."""
        kind = "drill_down" if finer else "roll_up"
        with self._observed(kind, "q3", subspace) as plan:
            mask = self.dataset.parse_subspace(subspace)
            steps = self.cube.neighbours(mask, finer)
            plan.strategy = "lattice-neighbors"
            out = {
                self.dataset.format_subspace(s): self._count_scan(plan, scan)
                for _, s, scan in steps
            }
            plan.result_size = len(out)
        return out

    # -- Q1 ---------------------------------------------------------------

    def skyline(self, subspace: str) -> list[str]:
        """Labels of the skyline objects of the named subspace."""
        with self._observed("skyline", "q1", subspace) as plan:
            scan = self.cube.scan(self.dataset.parse_subspace(subspace))
            plan.strategy = "decisive-scan"
            out = self._count_scan(plan, scan)
            plan.result_size = len(out)
        return out

    # -- Q2 ---------------------------------------------------------------

    def where_wins(self, label: str) -> list[str]:
        """Every subspace (rendered with names) where the object is skyline."""
        with self._observed("where_wins", "q2", label) as plan:
            obj = self._resolve(label)
            plan.strategy = "lattice-walk"
            masks = self.cube.membership_subspaces(obj)
            self._count_walk(plan, obj)
            out = [self.dataset.format_subspace(m) for m in masks]
            plan.result_size = len(out)
        return out

    def wins_in(self, label: str, subspace: str) -> bool:
        """Is the object a skyline member of the named subspace?"""
        with self._observed("wins_in", "q2", f"{label} in {subspace}") as plan:
            obj = self._resolve(label)
            probe = self.cube.probe(obj, self.dataset.parse_subspace(subspace))
            out = probe.group is not None
            plan.count("groups_considered", probe.groups_considered)
            plan.count("interval_checks", probe.interval_checks)
            plan.count("groups_matched", int(out))
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
        return self._neighbours(subspace, finer=True)

    def roll_up(self, subspace: str) -> dict[str, list[str]]:
        """Skyline after removing each dimension of the subspace."""
        return self._neighbours(subspace, finer=False)

    def top_frequent(self, k: int) -> list[tuple[str, int]]:
        """Top-k labels by skyline frequency (number of subspaces won)."""
        with self._observed("top_frequent", "q3", str(k)) as plan:
            top = self.cube.top_frequent(k)
            plan.strategy = "lattice-walk"
            for obj in {m for g in self.cube.groups for m in g.members}:
                self._count_walk(plan, obj)
            out = [(self.dataset.labels[obj], freq) for obj, freq in top]
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
