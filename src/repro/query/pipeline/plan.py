"""The explicit execution-plan IR shared by every query path.

A request (point query, continuous stream, heatmap grid, server batch)
is compiled into an :class:`ExecutionPlan` against one pinned
:class:`~repro.query.pipeline.binding.SnapshotBinding`.  An exact
method's plan is a flat list of operators, each bound to one
:class:`PlanContext` — a pinned ``(snapshot, window, shard)`` triple —
plus the merge discipline that reassembles their outputs in stream
order.  Separating the *choice* of how to answer (the builders, which
write the ops) from the *execution* (one shared
:class:`~repro.query.pipeline.executor.PlanExecutor`) is the
optimisation/execution split the HTAP literature argues for.

Operators:

* :class:`ScanOp` — the naive radius scan of one bound window slice for
  a set of queries.  Emits raw ``(query, stream row)`` hits (``emit ==
  "hits"``), the scatter half of exact execution.
* :class:`MergeOp` — the gather half: exact, partition-independent merge
  of every hit-emitting scan's hits (stream order + one segmented
  reduction per block; see :mod:`repro.query.pipeline.gather`).

A ``model-cover`` plan carries no ops: its binding, queries and method
are what :meth:`~repro.query.sharded.ShardedQueryEngine.cached_route`
answers it from, one :class:`CoverRun` per (window, owner shard) the
queries fall in, which a :class:`PlanReport` lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.query.base import QueryBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.pipeline.binding import SnapshotBinding


class PlanContext(NamedTuple):
    """The pinned storage context one operator executes against.

    ``stamp`` is the content epoch of the bound window slice at
    plan-build time; the executor resolves the slice back through the
    plan's binding, whose memo guarantees the very same pinned data
    (build and execution can never see different rows, even under
    concurrent ingest).  ``n_rows`` is the slice length at build time —
    the rows-per-query load an executed op reports.  A named tuple: a
    route's plan builds one per op.
    """

    window_c: int
    shard: int
    stamp: int
    n_rows: int

    def describe(self) -> str:
        return f"w{self.window_c}/s{self.shard}@e{self.stamp}"


@dataclass(frozen=True)
class ScanOp:
    """Naive radius scan of one bound window slice for a set of queries."""

    context: PlanContext
    positions: np.ndarray  # stream positions of the queries this op scans
    queries: QueryBatch

    kind = "scan"
    emit = "hits"


@dataclass(frozen=True)
class MergeOp:
    """Exact gather of every hit-emitting scan's hits."""

    n_queries: int
    n_stream_rows: int

    kind = "merge"


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


@dataclass(frozen=True)
class CoverRun:
    """One (window, owner shard) group a ``model-cover`` request was
    answered for: ``"cover"`` when the owner slice has rows (its cover
    evaluated; ``context.n_rows`` the slice's rows), ``"rows"`` when it
    is empty (the window's rows scanned; ``context.n_rows`` those)."""

    kind: str  # "cover" | "rows"
    context: PlanContext
    n_queries: int


@dataclass(frozen=True)
class ExecutionPlan:
    """One request compiled against one pinned snapshot binding."""

    binding: "SnapshotBinding"
    queries: QueryBatch
    ops: Tuple[ScanOp, ...]
    merge: Optional[MergeOp] = None
    method: str = ""  # the method the plan was requested with
    #: Candidate ops the pruning pass dropped (observability only —
    #: the executor never touches them).
    pruned: Tuple[PrunedOp, ...] = ()

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def ops_pruned(self) -> int:
        """Candidate ops the pruning pass dropped."""
        return len(self.pruned)

    @property
    def ops_kept(self) -> int:
        """Executable ops that survived planning (the merge stage is
        plumbing, not fan-out)."""
        return len(self.ops)


@dataclass
class PlanReport:
    """Observed per-op wall times, collected by the executor.

    Keyed by ``id(op)`` — ops are frozen, hashing by identity keeps the
    report usable for duplicate-looking ops.  A ``model-cover`` plan's
    :class:`CoverRun` records are timed the same way and listed in
    ``runs``, in the order they were answered.
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
    runs: List[CoverRun] = field(default_factory=list)

    def record(self, op: Union[ScanOp, CoverRun], elapsed: float) -> None:
        self.elapsed_s[id(op)] = self.elapsed_s.get(id(op), 0.0) + elapsed

    def observed(self, op: Union[ScanOp, CoverRun]) -> Optional[float]:
        return self.elapsed_s.get(id(op))


def format_plan(plan: ExecutionPlan, report: Optional[PlanReport] = None) -> str:
    """Human-readable plan listing for ``cli explain`` and debugging.

    One line per op: kind, method, bound context, query count, slice
    rows and observed wall time (when a report is given) — for a
    hit-emitting scan that is its scan seconds summed over the gather's
    blocks, and a ``gather`` line adds what the blocks spent sorting and
    reducing.  A ``model-cover`` plan has no ops; with a report, one
    line per :class:`CoverRun` the execution answered.
    """
    runs = report.runs if report is not None else []
    lines = [
        f"plan: method={plan.method or '?'} queries={plan.n_queries} "
        f"ops={len(plan.ops)} shape="
        + ("merge" if plan.merge is not None else "cover")
        + f" pruned={plan.ops_pruned}"
        + (f" runs={len(runs)}" if plan.merge is None and report is not None else "")
    ]
    header = f"  {'op':<22} {'context':<14} {'queries':>7} {'rows':>7}"
    if report is not None:
        header += f" {'observed':>11}"
    lines.append(header)

    def line(label, context, n_queries, rows, seen=None) -> str:
        text = f"  {label:<22} {context:<14} {n_queries:>7} {rows!s:>7}"
        if report is not None:
            text += f" {seen * 1e3:9.2f}ms" if seen is not None else f" {'-':>11}"
        return text

    for op in plan.ops:
        seen = report.observed(op) if report is not None else None
        label = f"{op.kind}[naive]+hits"
        lines.append(line(label, op.context.describe(), len(op.queries), op.context.n_rows, seen))
    for run in runs:
        label = f"{run.kind}[model-cover]"
        lines.append(
            line(label, run.context.describe(), run.n_queries, run.context.n_rows,
                 report.observed(run))
        )  # fmt: skip
    if plan.merge is not None:
        lines.append(line("merge[exact]", "-", plan.merge.n_queries, plan.merge.n_stream_rows))
    # Pruned candidates last: never executed, rows marked with `~` (the
    # estimated slice the scan would have read had it not been proven
    # empty by geometry / the zone-map sketch).
    for rec in plan.pruned:
        lines.append(
            line(f"pruned[{rec.reason}]", rec.context.describe(), rec.n_queries,
                 "~" + str(rec.context.n_rows))
        )  # fmt: skip
    if plan.ops_pruned:
        lines.append(
            f"  pruning: {plan.ops_pruned} op(s) pruned, "
            f"{plan.ops_kept} kept"
        )
    if report is not None:
        if plan.ops:
            lines.append(f"  gather: {report.gather_s * 1e3:.2f}ms (sort + reduce)")
        lines.append(f"  total: {report.total_s * 1e3:.2f}ms")
    return "\n".join(lines)
