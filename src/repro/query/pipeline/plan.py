"""The explicit execution-plan IR shared by every query path.

A request (point query, continuous stream, heatmap grid, server batch)
is compiled into an :class:`ExecutionPlan`: a flat list of operators,
each bound to one :class:`PlanContext` — a pinned ``(snapshot, window,
shard)`` triple resolved through a
:class:`~repro.query.pipeline.binding.SnapshotBinding` — plus the merge
discipline that reassembles their outputs in stream order.  Separating
the *choice* of how to answer (the planner, which writes the ops) from
the *execution* (one shared :class:`~repro.query.pipeline.executor.PlanExecutor`)
is the optimisation/execution split the HTAP literature argues for, and
it is what lets four previously copy-pasted paths share one pipeline.

Operators:

* :class:`ScanOp` — scan one bound window slice for a set of queries
  with a raw-data method (naive radius scan or an index kind).  Emits
  raw ``(query, stream row)`` hits (``emit == "hits"``), the scatter
  half of exact execution.
* :class:`CoverOp` — evaluate the bound ``(window, shard)`` model cover
  over a set of queries; always emits results.
* :class:`MergeOp` — the gather half: exact, partition-independent merge
  of every hit-emitting scan's hits (stream order + one segmented
  reduction per block; see :mod:`repro.query.pipeline.gather`).
* :class:`FallbackOp` — a nested exact sub-plan answering the queries a
  cover could not (empty owning slice, or the planner preferred raw
  data).

A plan is either **scatter-shaped** (cover ops + fallbacks;
outputs scattered back by query position — each query answered by
exactly one op) or **merge-shaped** (hit-emitting scans + one
:class:`MergeOp`; a query may collect hits from several shards).
Builders in :mod:`repro.query.pipeline.executor` enforce the shape.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.query.base import QueryBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.pipeline.binding import SnapshotBinding


@dataclass(frozen=True)
class PlanContext:
    """The pinned storage context one operator executes against.

    ``stamp`` is the content epoch of the bound window slice at
    plan-build time; the executor resolves the slice back through the
    plan's binding, whose memo guarantees the very same pinned data
    (build and execution can never see different rows, even under
    concurrent ingest).  ``n_rows`` is the slice length at build time —
    the statistic cost estimates are quoted against.
    """

    window_c: int
    shard: int
    stamp: int
    n_rows: int

    def describe(self) -> str:
        return f"w{self.window_c}/s{self.shard}@e{self.stamp}"


@dataclass(frozen=True)
class ScanOp:
    """Raw-data scan of one bound window slice for a set of queries."""

    context: PlanContext
    method: str  # "naive" or an index kind
    positions: np.ndarray  # stream positions of the queries this op scans
    queries: QueryBatch
    est_unit_cost: Optional[float] = None  # planner estimate, scan units/query
    #: Evaluation-only share of the estimate (prep/amortise stripped) —
    #: the unit load the executor's *timed region* actually performs,
    #: and therefore the normaliser for planner feedback.
    eval_unit_cost: Optional[float] = None

    kind = "scan"
    emit = "hits"


@dataclass(frozen=True)
class CoverOp:
    """Model-cover evaluation of one bound (window, shard) cover."""

    context: PlanContext
    positions: np.ndarray
    queries: QueryBatch
    est_unit_cost: Optional[float] = None
    eval_unit_cost: Optional[float] = None

    kind = "cover"
    method = "model-cover"
    emit = "result"


@dataclass(frozen=True)
class MergeOp:
    """Exact gather of every hit-emitting scan's hits."""

    n_queries: int
    n_stream_rows: int

    kind = "merge"


@dataclass(frozen=True)
class FallbackOp:
    """Queries re-routed from a cover to a nested exact sub-plan."""

    positions: np.ndarray
    plan: "ExecutionPlan"

    kind = "fallback"


@dataclass(frozen=True)
class PrunedOp:
    """Record of a candidate op the pruning pass proved empty.

    Never executed — kept on the plan so ``explain`` can show *why* a
    shard was skipped.  ``context.n_rows`` is the pinned slice length
    the pruned scan would have read (its estimated row cost, marked in
    :func:`format_plan`); ``reason`` is ``"region"`` when the grid
    geometry already excluded every query disk, and ``"sketch"`` when
    the zone map's bounding volume proved the remaining queries empty.
    """

    context: PlanContext
    n_queries: int
    reason: str  # "region" | "sketch"

    kind = "pruned"
    method = "-"


PlanOp = Union[ScanOp, CoverOp, FallbackOp]


@dataclass(frozen=True)
class ExecutionPlan:
    """One request compiled against one pinned snapshot binding."""

    binding: "SnapshotBinding"
    queries: QueryBatch
    ops: Tuple[PlanOp, ...]
    merge: Optional[MergeOp] = None
    method: str = ""  # the method the plan was requested with
    #: Candidate ops the pruning pass dropped (observability only —
    #: the executor never touches them).
    pruned: Tuple[PrunedOp, ...] = ()
    #: Candidate ops the pruning pass dropped, and executable ops that
    #: survived planning (fallback wrappers and the merge stage excluded
    #: — they are plumbing, not fan-out); nested plans included.  Counted
    #: once, at build: a nested plan is built before its wrapper, so each
    #: count is one pass over the plan's own ops.
    ops_pruned: int = field(init=False, compare=False)
    ops_kept: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        nested = [op.plan for op in self.ops if isinstance(op, FallbackOp)]
        object.__setattr__(
            self, "ops_pruned", len(self.pruned) + sum(p.ops_pruned for p in nested)
        )
        object.__setattr__(
            self, "ops_kept", len(self.ops) - len(nested) + sum(p.ops_kept for p in nested)
        )

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def walk(self) -> List[Tuple[int, PlanOp]]:
        """Every op in the plan, depth-first, with its nesting depth."""
        out: List[Tuple[int, PlanOp]] = []

        def visit(plan: "ExecutionPlan", depth: int) -> None:
            for op in plan.ops:
                out.append((depth, op))
                if isinstance(op, FallbackOp):
                    visit(op.plan, depth + 1)

        visit(self, 0)
        return out

    def walk_pruned(self) -> List[Tuple[int, PrunedOp]]:
        """Every pruned-op record, depth-first, with its nesting depth."""
        out: List[Tuple[int, PrunedOp]] = []

        def visit(plan: "ExecutionPlan", depth: int) -> None:
            out.extend((depth, rec) for rec in plan.pruned)
            for op in plan.ops:
                if isinstance(op, FallbackOp):
                    visit(op.plan, depth + 1)

        visit(self, 0)
        return out


@dataclass
class PlanReport:
    """Observed per-op wall times, collected by the executor.

    Keyed by ``id(op)`` — ops are frozen, hashing by identity keeps the
    report usable for duplicate-looking ops in nested plans.
    """

    elapsed_s: Dict[int, float] = field(default_factory=dict)
    total_s: float = 0.0
    #: Merge-shaped plans: the exact gather's self time (sort + reduce),
    #: i.e. what the block loop spent outside the ops' scan clocks.
    gather_s: float = 0.0
    #: Fan-out accounting, filled by the executor from the plan: how
    #: many candidate ops pruning dropped vs how many actually ran.
    ops_pruned: int = 0
    ops_kept: int = 0

    def record(self, op: PlanOp, elapsed: float) -> None:
        self.elapsed_s[id(op)] = self.elapsed_s.get(id(op), 0.0) + elapsed

    def observed(self, op: PlanOp) -> Optional[float]:
        return self.elapsed_s.get(id(op))


class PruneStats:
    """Cumulative pruning counters an engine keeps across plans.

    The per-plan counters live on :class:`ExecutionPlan` /
    :class:`PlanReport`; this aggregates them engine-side (thread-safe —
    plans may be built concurrently) so long-running owners can surface
    a pruning line next to their ``cache_stats``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.plans = 0
        self.ops_pruned = 0
        self.ops_kept = 0

    def observe(self, plan: ExecutionPlan) -> None:
        with self._lock:
            self.plans += 1
            self.ops_pruned += plan.ops_pruned
            self.ops_kept += plan.ops_kept

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "plans": self.plans,
                "ops_pruned": self.ops_pruned,
                "ops_kept": self.ops_kept,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PruneStats({self.as_dict()})"


def format_plan(plan: ExecutionPlan, report: Optional[PlanReport] = None) -> str:
    """Human-readable plan listing for ``cli explain`` and debugging.

    One line per op: nesting, kind, method, bound context, query count,
    slice rows, estimated cost (scan units per query, when the planner
    supplied one) and observed wall time (when a report is given) —
    for a hit-emitting scan that is its scan seconds summed over the
    gather's blocks, and a ``gather`` line adds what the blocks spent
    sorting and reducing (nested fallback sub-plans included).
    """
    lines = [
        f"plan: method={plan.method or '?'} queries={plan.n_queries} "
        f"ops={len(plan.walk())} shape="
        + ("merge" if plan.merge is not None else "scatter")
        + f" pruned={plan.ops_pruned}"
    ]
    header = f"  {'op':<22} {'context':<14} {'queries':>7} {'rows':>7} {'est u/q':>9}"
    if report is not None:
        header += f" {'observed':>11}"
    lines.append(header)
    for depth, op in plan.walk():
        pad = "  " * depth
        if isinstance(op, FallbackOp):
            label = f"{pad}fallback"
            ctx, n_q, rows, est = "-", len(op.positions), "-", None
        else:
            label = f"{pad}{op.kind}[{op.method}]"
            if isinstance(op, ScanOp):
                label += "+hits"
            ctx = op.context.describe()
            n_q, rows, est = len(op.queries), op.context.n_rows, op.est_unit_cost
        est_text = f"{est:9.1f}" if est is not None and math.isfinite(est) else f"{'-':>9}"
        line = f"  {label:<22} {ctx:<14} {n_q:>7} {rows!s:>7} {est_text}"
        if report is not None:
            seen = report.observed(op)
            line += f" {seen * 1e3:9.2f}ms" if seen is not None else f" {'-':>11}"
        lines.append(line)
    if plan.merge is not None:
        line = (
            f"  {'merge[exact]':<22} {'-':<14} {plan.merge.n_queries:>7} "
            f"{plan.merge.n_stream_rows:>7} {'-':>9}"
        )
        if report is not None:
            line += f" {'-':>11}"
        lines.append(line)
    # Pruned candidates last: never executed, rows marked with `~` (the
    # estimated slice the scan would have read had it not been proven
    # empty by geometry / the zone-map sketch).
    for depth, rec in plan.walk_pruned():
        pad = "  " * depth
        label = f"{pad}pruned[{rec.reason}]"
        line = (
            f"  {label:<22} {rec.context.describe():<14} {rec.n_queries:>7} "
            f"{'~' + str(rec.context.n_rows):>7} {'-':>9}"
        )
        if report is not None:
            line += f" {'-':>11}"
        lines.append(line)
    if plan.ops_pruned:
        lines.append(
            f"  pruning: {plan.ops_pruned} op(s) pruned, "
            f"{plan.ops_kept} kept"
        )
    if report is not None:
        if any(isinstance(op, ScanOp) for _, op in plan.walk()):
            lines.append(f"  gather: {report.gather_s * 1e3:.2f}ms (sort + reduce)")
        lines.append(f"  total: {report.total_s * 1e3:.2f}ms")
    return "\n".join(lines)
