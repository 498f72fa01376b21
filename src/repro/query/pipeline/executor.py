"""One executor for every exact plan, plus the builder that writes plans.

The :class:`PlanExecutor` runs a merge-shaped
:class:`~repro.query.pipeline.plan.ExecutionPlan` against its pinned
binding and is the only place operator dispatch lives: the blocked
exact gather.  Each window's queries are walked in blocks of
:data:`~repro.query.pipeline.gather.BLOCK_CELLS` cells or more and each
block's hits are summed straight into the result in stream order — over
the window's naive slices merged once per group of queries that scan
the same ones, where the order is free
(:func:`~repro.query.pipeline.gather.reduce_row_block`), else keyed and
sorted (:func:`~repro.query.pipeline.gather.reduce_hit_block`) — exact,
partition-independent, and never holding more than one block's hits.
A plan of three windows or more that fits one block is one ragged tile
instead, every window's queries over that window's rows.  The loop runs
in the calling thread.

A ``model-cover`` plan has no ops: the engine answers it through its
lanes (:meth:`~repro.query.sharded.ShardedQueryEngine.cached_route`),
not through this executor.

Every operator's wall time is reported to the shard-load observer
(when wired); pass a :class:`~repro.query.pipeline.plan.PlanReport` to
also collect per-op timings for ``cli explain``.

The owner supplies a :class:`PlanRuntime` — the callables that produce
hit pairs for a bound context, and the radius at which rows merged
across contexts are scanned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.query.base import BatchResult, QueryBatch
from repro.query.pipeline.binding import BoundSlice, RouterBinding, SnapshotBinding
from repro.query.pipeline import gather as _gather
from repro.query.pipeline.gather import HitPairs, reduce_hit_block, reduce_row_block
from repro.query.pipeline.plan import (
    ExecutionPlan,
    MergeOp,
    PlanContext,
    PlanReport,
    PrunedOp,
    ScanOp,
)
from repro.storage.sketch import bbox_disk_overlaps

__all__ = [
    "PlanRuntime",
    "PlanExecutor",
    "build_sharded_plan",
]


@dataclass
class PlanRuntime:
    """How one engine materialises the executor's primitives.

    ``hits`` maps a hit-emitting scan, its bound slice, the prepared
    object and a local query range ``[lo, hi)`` to that range's
    :data:`~repro.query.pipeline.gather.HitPairs` (query indices local
    to the op's queries, row indices local to the slice).  The binding
    is the plan's — the executor resolves each op's context through it,
    so execution reads exactly the rows the builder pinned.
    """

    binding: SnapshotBinding
    hits: Callable[[ScanOp, BoundSlice, object, int, int], HitPairs]
    #: Optional warm-up for hit-emitting scans (e.g. materialise the
    #: index) — run once per op *before* the block loop and outside
    #: every timer, so one-time build costs never pollute the observed
    #: per-op timings.  Whatever it returns is handed
    #: to every ``hits`` call of the op, so the prepared object cannot
    #: be evicted-and-rebuilt (inside the timer) between calls.
    prepare_hits: Optional[Callable[[ScanOp, BoundSlice], object]] = None
    #: The radius of the naive scan over rows that belong to no single
    #: op — a window's slices merged in stream order, scanned by the
    #: executor's own tile (:func:`~repro.query.pipeline.gather.scan_tile`
    #: or :func:`~repro.query.pipeline.gather.scan_axis_tile`).  Without
    #: it every window is gathered by keys.
    radius_m: Optional[float] = None

    def bound(self, op) -> BoundSlice:
        return self.binding.slice_for(op.context.shard, op.context.window_c)


class PlanExecutor:
    """Runs plans; owns no state beyond its wiring."""

    def __init__(
        self,
        runtime: PlanRuntime,
        load: Optional[Callable[[int, int, float, Optional[float]], None]] = None,
    ) -> None:
        self.runtime = runtime
        # Optional shard-load observer ``(shard, n_queries, units,
        # seconds)`` — the router's ShardLoadTracker when the owning
        # engine wires one, feeding the adaptive rebalancer.
        self.load = load

    def execute(
        self, plan: ExecutionPlan, report: Optional[PlanReport] = None
    ) -> BatchResult:
        start = time.perf_counter()
        result = self._run_merge(plan, report)
        if report is not None:
            report.total_s += time.perf_counter() - start
            report.ops_pruned += plan.ops_pruned
            report.ops_kept += plan.ops_kept
        return result

    # -- internals ----------------------------------------------------------

    def _run_merge(self, plan: ExecutionPlan, report: Optional[PlanReport]) -> BatchResult:
        """The blocked exact gather (see :mod:`repro.query.pipeline.gather`).

        A plan of naive windows that together fit one block is one
        ragged tile (:func:`_ragged_tile`).  Otherwise each window is
        walked as the units :func:`_gather_units` picks for it — row
        groups, whose hits are canonical as the tile reports them, or
        the keyed window, whose hit pairs are keyed and sorted — in
        blocks of ``BLOCK_CELLS`` cells, grown, once the plan has shown
        a sparse hit density, towards ``BLOCK_HITS`` hits; each block is
        summed straight into the result.  Whether row groups may scan
        from axis tables is read once, here, off the plan's queries
        (:func:`~repro.query.pipeline.gather.query_axes`).
        Only the tile, its hit extraction and a group's axis tables are
        on an op's clock — the load tracker and ``explain`` keep seeing
        scan cost, while preparation (grouping, merging rows, keys),
        sort and reduce accrue to ``report.gather_s``.

        The loop runs in the calling thread.  Each of its numpy calls
        drops the GIL for a few microseconds, so threads running block
        ranges hand it back and forth: with more threads than free cores
        that doubled a many-small-ops plan's time
        (``docs/architecture.md`` has the numbers), and no host was
        available on which a gain could be shown.  Cores are used across
        requests, or across worker processes by ``ProcessPlanExecutor``.
        """
        merge = plan.merge
        assert merge is not None
        runtime = self.runtime
        ops: Sequence[ScanOp] = plan.ops  # type: ignore[assignment]
        values = np.full(merge.n_queries, np.nan)
        support = np.zeros(merge.n_queries, dtype=np.int64)
        clock = time.perf_counter
        scan_s = [0.0] * len(ops)
        gather_s = 0.0
        budget = _gather.BLOCK_CELLS
        cells_seen = hits_seen = 0
        queries = plan.queries
        start = clock()
        ragged = _ragged_tile(runtime, ops, queries)
        if ragged is not None:
            with _gather.workspace() as ws:
                scanned = ragged.run(runtime.radius_m, ws, values, support)
            for i, share in zip(ragged.members, ragged.shares):
                scan_s[i] = scanned * share
            gather_s += clock() - start - scanned
        else:
            axes = None
            if runtime.radius_m is not None:
                axes = _gather.query_axes(queries.x, queries.y)
            gather_s += clock() - start
            with _gather.workspace() as ws:
                for sources in _window_sources(runtime, ops):
                    start = clock()
                    units = _gather_units(
                        sources, queries, merge.n_stream_rows, runtime, axes
                    )
                    gather_s += clock() - start
                    for unit in units:
                        first, n = 0, len(unit.positions)
                        while first < n:
                            start = clock()
                            first, cells, n_hits, scanned = unit.block(
                                first, budget, runtime, ws, values, support
                            )
                            gather_s += clock() - start - scanned
                            cells_seen += cells
                            hits_seen += n_hits
                            budget = _gather.block_budget(cells_seen, hits_seen)
                    for src in sources:
                        scan_s[src.index] = src.scan_s
        if self.load is not None:
            record_scan_load(self.load, ops, scan_s)
        if report is not None:
            for op, elapsed in zip(ops, scan_s):
                report.record(op, elapsed)
            report.gather_s += gather_s
        return BatchResult(plan.queries, values, support, answered=support > 0)


def record_scan_load(
    load, ops: Sequence[ScanOp], seconds: Optional[Sequence[float]] = None
) -> None:
    """Report a plan's executed scan ops to a shard-load observer, one
    call per shard with its ops' totals: queries, units in rows per
    query — the naive scan's exact count, and a sane upper bound for
    index scans; integers, so they sum exactly — and seconds (None
    where ``seconds`` is)."""
    totals: Dict[int, list] = {}
    for i, op in enumerate(ops):
        context = op.context
        if context.shard is None:
            continue
        k = len(op.positions)
        units = max(context.n_rows, 1) * k
        elapsed = 0.0 if seconds is None else seconds[i]
        total = totals.get(context.shard)
        if total is None:
            totals[context.shard] = [k, units, elapsed]
        else:
            total[0] += k
            total[1] += units
            total[2] += elapsed
    for shard, (k, units, elapsed) in totals.items():
        load(shard, k, float(units), None if seconds is None else elapsed)


# -- the blocked gather's geometry -------------------------------------------

#: Queries per source-set a window must average before it is split into
#: row groups (unless it fits one block): each group merges its sources'
#: rows once, which a handful of queries does not repay — the keyed
#: window costs those nothing up front.
MIN_GROUP_QUERIES = 32


@dataclass
class _HitSource:
    """One hit-emitting scan, resolved once per execution for the block loop."""

    index: int  # position of the op in plan.ops
    op: ScanOp
    bound: BoundSlice
    prepared: object
    gids: np.ndarray  # the slice rows' global stream positions
    s: np.ndarray  # the slice rows' sensor values
    scan_s: float = 0.0  # seconds of tile + hit extraction, summed over blocks
    # Keyed windows only:
    keys: Optional[np.ndarray] = None  # op.positions * stride: the key's query half
    #: Local query index of each of the window's queries (and of its
    #: end), i.e. where a block boundary falls in ``op.queries``; None
    #: when the source scans every query of the window.
    rank: Optional[List[int]] = None


@dataclass
class _RowGroup:
    """Queries of one window that scan the same sources, over those
    sources' rows merged in stream order: the tile's row-major hits are
    canonical by construction, so no keys and no sort
    (:func:`~repro.query.pipeline.gather.reduce_row_block`).  A group
    with ``axes`` scans from axis tables, built by its first block."""

    sources: List[_HitSource]
    #: Each source's share of the tile's seconds: its cells (its rows x
    #: its queries in the group) over the group's.
    shares: List[float]
    positions: np.ndarray  # stream positions of the group's queries, ascending
    qx: np.ndarray
    qy: np.ndarray
    x: np.ndarray  # the merged rows' coordinates and sensor values
    y: np.ndarray
    s: np.ndarray
    #: The group's distinct query coordinates and each query's codes
    #: (:func:`~repro.query.pipeline.gather.group_axes`), or None: the
    #: six-pass tile.
    axes: Optional[_gather.QueryAxes] = None
    tables: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def block(self, first, budget, runtime, ws, values, support):
        """Scan and sum the block starting at query ``first`` in the
        plan's workspace ``ws``; returns ``(end, cells, hits, scan
        seconds)``.  Every query costs the same rows, so a block is
        ``budget // rows`` queries."""
        rows = len(self.s)
        end = min(first + max(budget // rows, 1), len(self.positions))
        radius_m = runtime.radius_m
        t0 = time.perf_counter()
        if self.axes is None:
            flat = _gather.scan_tile(
                self.x, self.y, self.qx[first:end], self.qy[first:end], radius_m, ws
            )
        else:
            ux, ix, uy, iy = self.axes
            if first == 0:  # the workspace's tables are this group's from here on
                self.tables = _gather.axis_tables(ws, self.x, self.y, ux, uy)
            flat = _gather.scan_axis_tile(
                ws, *self.tables, ix[first:end], iy[first:end], radius_m
            )
        scanned = time.perf_counter() - t0
        for src, share in zip(self.sources, self.shares):
            src.scan_s += scanned * share
        n_hits = len(flat)
        reduce_row_block(flat, self.s, self.positions[first:end], values, support)
        return end, (end - first) * rows, n_hits, scanned


@dataclass
class _RaggedTile:
    """A plan's windows scanned as one tile, each query over its own
    window's rows only (:func:`_ragged_tile`): every window's naive
    slices merged once in stream order — windows are disjoint ranges of
    it, so the merge is window-major — the queries grouped by window,
    then one :func:`~repro.query.pipeline.gather.scan_ragged_tile` and
    one :func:`~repro.query.pipeline.gather.reduce_ragged_block`.  A
    query's hits come out in stream order, as a row group's do."""

    members: List[int]  # plan indices of the ops whose slices have rows
    #: Each member's share of the tile's seconds: its cells (its rows x
    #: its queries) over all members'.
    shares: List[float]
    positions: np.ndarray  # the scanned queries' stream positions, window-major
    qx: np.ndarray
    qy: np.ndarray
    x: np.ndarray  # the merged rows' coordinates and sensor values
    y: np.ndarray
    s: np.ndarray
    spans: List[_gather.Span]  # per window: its queries, its rows, its first cell
    starts: np.ndarray  # each query's first cell, and the tile's end
    shift: np.ndarray  # each query's first cell minus its window's first row

    def run(self, radius_m, ws, values, support) -> float:
        """Scan and sum the tile (it fits one block by construction) in
        ``ws``; returns the scan's seconds."""
        t0 = time.perf_counter()
        flat = _gather.scan_ragged_tile(
            ws, self.x, self.y, self.qx, self.qy, self.spans, radius_m
        )
        scanned = time.perf_counter() - t0
        _gather.reduce_ragged_block(
            flat, self.s, self.starts, self.shift, self.positions, values, support
        )
        return scanned


#: Windows a plan must span before they are scanned as one ragged tile.
#: Its set-up (a label per query, per-query cell and row offsets) costs
#: about what one window's own gather does, so it pays from the third
#: window on; a one- or two-window plan (a heatmap, most fallback and
#: maintenance plans) keeps the per-window gather.  Measured in
#: process on ``cold_route`` routes (``docs/architecture.md``).
MIN_RAGGED_WINDOWS = 3


def _ragged_tile(
    runtime: PlanRuntime, ops: Sequence[ScanOp], queries: QueryBatch
) -> Optional[_RaggedTile]:
    """The plan as one :class:`_RaggedTile`, or None where the
    per-window gather runs instead: no merge radius, an op that is not
    a naive scan, ops not window-major (builders write them so), fewer
    than :data:`MIN_RAGGED_WINDOWS` windows with rows, or more cells
    than one block.

    The cells are every window's union tile — all its queries over all
    its slices' rows — as when :func:`_gather_units` merges a window
    whole: a (query, slice) pair the plan pruned cannot hit, so scanning
    it changes no byte.  Ops whose pinned slice is empty are left out.
    """
    if (  # one- and two-window plans resolve nothing here
        runtime.radius_m is None
        or not ops
        or ops[-1].context.window_c - ops[0].context.window_c < MIN_RAGGED_WINDOWS - 1
    ):
        return None
    members, bounds, window_of, scans = [], [], [], []
    cs, rows, widest = [], [], []  # per window: its index, its rows, its widest op
    slice_for = runtime.binding.slice_for
    for i, op in enumerate(ops):
        if op.method != "naive":
            return None
        context = op.context
        bound = slice_for(context.shard, context.window_c)
        n = len(bound[2])
        if not n:
            continue
        c, k = context.window_c, len(op.positions)
        if not cs or c > cs[-1]:
            cs.append(c)
            rows.append(n)
            widest.append(k)
        elif c == cs[-1]:
            rows[-1] += n
            widest[-1] = max(widest[-1], k)
        else:
            return None
        members.append(i)
        bounds.append(bound)
        window_of.append(len(cs) - 1)
        scans.append(k)
    if (  # rows x widest op: the fewest cells the windows can have
        len(cs) < MIN_RAGGED_WINDOWS
        or sum(map(int.__mul__, rows, widest)) > _gather.BLOCK_CELLS
    ):
        return None
    # Each query lies in one window: label it, keep the labelled ones
    # and group them by window (no sort when the plan is time-ordered).
    label = np.full(len(queries), -1, dtype=np.intp)
    label[np.concatenate([ops[i].positions for i in members])] = np.repeat(
        window_of, scans
    )
    positions = np.flatnonzero(label >= 0)
    label = label[positions]
    if (label[1:] < label[:-1]).any():
        positions = positions[np.argsort(label, kind="stable")]
    counts = np.bincount(label, minlength=len(cs)).tolist()
    cells = list(map(int.__mul__, counts, rows))
    if sum(cells) > _gather.BLOCK_CELLS:
        return None
    spans, q0, r0, at = [], 0, 0, 0
    for k, n, size in zip(counts, rows, cells):
        spans.append((q0, q0 + k, r0, r0 + n, at))
        q0, r0, at = q0 + k, r0 + n, at + size
    starts = np.zeros(len(positions) + 1, dtype=np.intp)
    np.cumsum(np.repeat(rows, counts), out=starts[1:])
    first_row = np.repeat([span[2] for span in spans], counts)
    own = [k * len(bound[2]) for k, bound in zip(scans, bounds)]
    total = sum(own)
    return _RaggedTile(
        members,
        [cells_of / total for cells_of in own],
        positions,
        queries.x[positions],
        queries.y[positions],
        *_gather.merged_rows(bounds),
        spans,
        starts,
        starts[:-1] - first_row,
    )


def _row_group(sources, cells, positions, queries: QueryBatch, axes) -> _RowGroup:
    """The group of the queries at ``positions`` over ``sources``, of
    which source ``i`` accounts for ``cells[i]`` of the tile; it scans
    from axis tables when the plan's ``axes`` allow and its own tables
    are smaller than its tile."""
    shares = (np.asarray(cells) / np.sum(cells)).tolist()
    return _RowGroup(
        sources, shares, positions, queries.x[positions], queries.y[positions],
        *_gather.merged_rows([src.bound for src in sources]),
        axes=None if axes is None else _gather.group_axes(axes, positions),
    )


@dataclass
class _KeyedWindow:
    """One window whose sources report hit pairs: composite keys, one
    stable sort per block.  What cannot be had in order for less than
    the keys cost — index sources, and sparse many-source windows."""

    sources: List[_HitSource]
    positions: np.ndarray  # stream positions of the window's queries, ascending
    #: ``positions * stride`` — each query's lowest possible key — plus
    #: one final bound above every key of the window.
    edges: np.ndarray
    #: Cells charged before each query (and in total) — a query costs
    #: the rows of every slice that scans it, so pruned plans get more
    #: queries per block.
    spent: np.ndarray

    def block(self, first, budget, runtime, ws, values, support):
        """Scan, sort and sum the block starting at query ``first`` — it
        takes queries until ``budget`` cells are spent; returns ``(end,
        cells, hits, scan seconds)``.  ``ws`` goes unused: the sources'
        own scans take a workspace each."""
        spent = self.spent
        end = min(int(spent.searchsorted(spent[first] + budget)), len(self.positions))
        clock = time.perf_counter
        scanned = 0.0
        n_hits = 0
        keys: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        for src in self.sources:
            if src.rank is None:
                lo, hi = first, end
            else:
                lo, hi = src.rank[first], src.rank[end]
                if lo == hi:
                    continue
            t0 = clock()
            qi, ti = runtime.hits(src.op, src.bound, src.prepared, lo, hi)
            elapsed = clock() - t0
            src.scan_s += elapsed
            scanned += elapsed
            if len(qi):
                keys.append(src.keys[qi] + src.gids[ti])
                vals.append(src.s[ti])
                n_hits += len(qi)
        reduce_hit_block(
            keys, vals, self.edges[first : end + 1], self.positions[first:end],
            values, support,
        )
        return end, int(spent[end] - spent[first]), n_hits, scanned


def _window_sources(runtime: PlanRuntime, ops: Sequence[ScanOp]) -> List[List[_HitSource]]:
    """A merge-shaped plan's scans, one list per window.

    Resolves each scan's pinned slice and runs its warm-up (index build)
    here — once, outside every timer.  A scan whose pinned slice is
    empty cannot hit and is left out.
    """
    by_window: Dict[int, List[int]] = {}
    for i, op in enumerate(ops):
        by_window.setdefault(op.context.window_c, []).append(i)
    windows = []
    for members in by_window.values():
        sources = []
        for i in members:
            op = ops[i]
            bound = runtime.bound(op)
            _stamp, sub, gids = bound
            if not len(gids):
                continue
            prepared = (
                runtime.prepare_hits(op, bound)
                if runtime.prepare_hits is not None
                else None
            )
            sources.append(_HitSource(i, op, bound, prepared, gids, sub.s))
        if sources:
            windows.append(sources)
    return windows


def _gather_units(
    sources: List[_HitSource],
    queries: QueryBatch,
    n_stream_rows: int,
    runtime: PlanRuntime,
    axes: Optional[_gather.QueryAxes],
) -> list:
    """How one window is walked: row groups where canonical order can be
    had by construction, else the keyed window.

    The choice reads only what the plan carries — the sources, which
    queries each scans, and their rows.  Naive sources qualify (an index
    reports rows in index order).  One source is its own group and pays
    nothing.  Several are merged whole when each scans every query, or
    when the window's union tile fits one block — a (query, slice) pair
    the plan pruned cannot hit, so scanning it changes no byte — and
    otherwise split by source-set (:func:`_source_set_groups`), unless
    the sets are too small to repay merging their rows (not looked at
    when the window has too few queries for two sets).  Relies on what
    the plan builders guarantee: an op's ``positions`` ascend and index
    ``queries``, a slice's gids ascend.  ``axes`` are the plan's
    :func:`~repro.query.pipeline.gather.query_axes`, which each row
    group narrows to its own queries.
    """
    in_order = runtime.radius_m is not None and all(
        src.op.method == "naive" for src in sources
    )
    if len(sources) == 1:
        positions = sources[0].op.positions
        if in_order:
            return [_row_group(sources, [1], positions, queries, axes)]
    else:
        positions = np.unique(np.concatenate([src.op.positions for src in sources]))
    rows = np.array([len(src.gids) for src in sources])
    counts = [len(src.op.positions) for src in sources]
    if in_order and (
        len(positions) * int(rows.sum()) <= _gather.BLOCK_CELLS
        or min(counts) == len(positions)  # one source-set: every source, every query
    ):
        return [_row_group(sources, counts * rows, positions, queries, axes)]
    # member[i, q]: source i scans the window's q-th query.
    member = np.zeros((len(sources), len(positions)), dtype=bool)
    for scans, src in zip(member, sources):
        scans[positions.searchsorted(src.op.positions)] = True
    groups = None
    if in_order and len(positions) >= 2 * MIN_GROUP_QUERIES:  # else: two sets or more
        groups = _source_set_groups(positions, member, rows)
    if groups is not None:
        return [
            _row_group([sources[i] for i in picked], cells, at, queries, axes)
            for picked, cells, at in groups
        ]
    # Canonical order is (query position, global stream position).  Under
    # concurrent ingest a pinned gid can exceed the row counter the plan
    # read; widen the stride so the composite key stays collision-free.
    stride = max([n_stream_rows, 1] + [int(src.gids[-1]) + 1 for src in sources])
    for scans, src in zip(member, sources):
        if len(src.op.positions) < len(positions):
            src.rank = [0, *np.cumsum(scans).tolist()]
        src.keys = src.op.positions * stride
    edges = np.append(positions, positions[-1] + 1) * stride
    spent = np.concatenate(([0], np.cumsum(rows @ member)))
    return [_KeyedWindow(sources, positions, edges, spent)]


def _source_set_groups(positions: np.ndarray, member: np.ndarray, rows: np.ndarray):
    """Split a window's queries by the set of sources that scan them.

    Returns ``(source indices, cells per source, positions)`` per
    group, or None when the sets average under
    :data:`MIN_GROUP_QUERIES` queries.  Sets are taken smallest tile
    first and merged while their union tile — all their queries over
    all their sources' rows — still fits one block.  A source-set is a
    column of ``member``, labelled a byte of sources at a time, so any
    number of sources will do.
    """
    label = np.zeros(len(positions), dtype=np.int64)
    for byte in np.packbits(member, axis=0):
        label = np.unique(label << 8 | byte, return_inverse=True)[1]
    sizes = np.bincount(label)
    if len(positions) < MIN_GROUP_QUERIES * len(sizes):
        return None
    by_set = np.argsort(label, kind="stable")
    ends = np.cumsum(sizes)
    sets = member[:, by_set[ends - 1]]  # (sources, sets): who scans each set
    groups = []
    union, parts = None, []  # the group being assembled

    def close():
        at = np.sort(np.concatenate(parts))
        picked = union.nonzero()[0]
        cells = (member[:, at].sum(axis=1) * rows)[picked]
        groups.append((picked.tolist(), cells, positions[at]))

    for g in np.argsort(sizes * (rows @ sets), kind="stable").tolist():
        both = sets[:, g] if union is None else union | sets[:, g]
        count = sizes[g] + sum(map(len, parts))
        if parts and count * int(rows[both].sum()) > _gather.BLOCK_CELLS:
            close()
            both, parts = sets[:, g], []
        union = both
        parts.append(by_set[ends[g] - sizes[g] : ends[g]])
    close()
    # Largest first: the plan learns its hit density (the block budget)
    # from the tiles that dominate it, not from a corner set's few cells.
    return groups[::-1]


# -- plan builders ----------------------------------------------------------


def build_sharded_plan(
    binding: RouterBinding,
    queries: QueryBatch,
    method: str,
    radius_m: float,
    prune: bool = True,
) -> ExecutionPlan:
    """Plan for the region-sharded scatter-gather engine.

    Exact methods compile to a merge-shaped plan; ``model-cover``
    compiles to a plan of no ops — the binding, the queries and the
    method — that the engine's route lane answers.

    ``prune=True`` (the default) runs the plan-time scatter-pruning pass
    on the exact path — grid geometry plus per-(shard, window) zone-map
    sketches, see :func:`_exact_plan` — so the plan fans out to
    O(relevant shards) only.  ``prune=False`` compiles the full scatter
    (every non-empty (shard, window) op gets the whole window's
    queries); both compile to byte-identical answers, which is the
    oracle the pruning benchmark and hypothesis suites enforce.
    """
    if method == "model-cover":
        return ExecutionPlan(binding, queries, (), None, method)
    windows = binding.windows_for_times(queries.t)
    return _exact_plan(binding, queries, windows, method, radius_m, prune=prune)


def _runs(keys: np.ndarray) -> List[int]:
    """Start of every run of equal values in ``keys``, plus ``len(keys)``."""
    if not len(keys):
        return [0]
    return [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]


def _exact_plan(
    binding: RouterBinding,
    queries: QueryBatch,
    windows: np.ndarray,
    method: str,
    radius_m: float,
    prune: bool = True,
) -> ExecutionPlan:
    """Merge-shaped plan: per-(window, shard) hit scans + exact gather.

    The pruning pass (``prune=True``) cuts the O(shards x windows)
    fan-out down to the ops that can actually contribute hits, in three
    superset-safe layers:

    1. *window cuts* — a query only ever scatters into its responsible
       global window's ops, so history windows a continuous stream never
       touches cost nothing;
    2. *grid geometry* — per query, only the shards inside the disk's
       cell-index rectangle (:meth:`RegionGrid.disks_shard_mask`);
    3. *zone-map sketches* — the pinned slice's bounding box
       (:meth:`SnapshotBinding.sketch_for`, coherent with the slice by
       construction) must be within ``radius_m`` of the query point,
       which prunes shards whose geometric cell is reachable but whose
       actual rows cluster far from the query.

    All three are evaluated once, for every (query, shard) of the batch,
    as one boolean ``(queries, shards)`` mask over the window-grouped
    batch; what is left per kept (window, shard) pair is what needs the
    pinned slice.  A candidate left with zero queries is dropped from
    the plan entirely and recorded as a :class:`PrunedOp`.  Dropped
    scans are exactly those that would have produced an empty hit
    partial, and the exact gather orders hits canonically by stream
    position — so pruned and unpruned plans are byte-identical.
    ``prune=False`` is the same pass with an all-true mask: every window
    query reaches every non-empty shard slice (the benchmark baseline).
    """
    n, n_shards = len(queries), binding.n_shards
    ops: List[ScanOp] = []
    pruned: List[PrunedOp] = []
    if not n:
        merge = MergeOp(0, binding.stream_rows())
        return ExecutionPlan(binding, queries, (), merge, method)
    # Group the batch by window: one stable sort (none for a time-sorted
    # batch), so a window's queries are a run and keep stream order.
    order = None
    if (windows[1:] < windows[:-1]).any():
        order = np.argsort(windows, kind="stable")
        windows = windows[order]
    runs = _runs(windows)
    starts = runs[:-1]
    cs = windows[starts].tolist()
    counts = [hi - lo for lo, hi in zip(runs, runs[1:])]
    window_of = np.repeat(np.arange(len(cs)), counts)  # index into `cs` per query
    if prune:
        qx, qy = queries.x, queries.y
        if order is not None:
            qx, qy = qx[order], qy[order]
        reach = binding.grid.disks_shard_mask(qx, qy, radius_m)
        # Geometry is data-independent, so a shard no disk of the window
        # reaches is dropped before anything of it is resolved.  For the
        # reached ones, sketch before slice: the sketch is resident
        # (frozen for sealed windows, pinned-with-slice for open ones),
        # so a fully pruned candidate never materialises its rows — on
        # the durable tier, never faults its segment in.  The sketch
        # counts the slice's rows exactly, so dropping an empty sketch is
        # the unpruned path's empty-slice skip.
        reached = np.logical_or.reduceat(reach, starts)
        size = len(cs) * n_shards * 5
        table = [0.0] * size  # an unreached candidate's row: no rows
        sketch_for = binding.sketch_for
        for k in np.flatnonzero(reached).tolist():  # k = w * n_shards + s
            sketch = sketch_for(k % n_shards, cs[k // n_shards])
            table[5 * k : 5 * k + 5] = (
                sketch.min_x, sketch.max_x, sketch.min_y, sketch.max_y, sketch.n_rows
            )
        table = np.fromiter(table, np.float64, size).reshape(len(cs), n_shards, 5)
        nonempty = table[:, :, 4] > 0
        box = table[window_of]  # (queries, shards, 5): each query's window's row
        mask = (
            reach
            & nonempty[window_of]
            & bbox_disk_overlaps(
                box[:, :, 0], box[:, :, 1], box[:, :, 2], box[:, :, 3],
                qx[:, None], qy[:, None], radius_m,
            )
        )
        # The records of what was dropped, per window: unreached shards
        # with rows, then reached ones whose sketch no disk overlaps.
        # Their stamp/rows are unpinned O(1) peeks.
        kept = np.logical_or.reduceat(mask, starts)
        dropped = np.hstack((~reached, reached & nonempty & ~kept))
        stats_of = None
        for w, k in zip(*(hit.tolist() for hit in dropped.nonzero())):
            c, s = cs[w], k % n_shards
            if k < n_shards:
                if stats_of != w:
                    stats, stats_of = binding.peek_window(c), w
                stamp, n_rows = stats[s]
                if not n_rows:
                    continue
            else:
                stamp, n_rows = binding.peek(s, c)
            pruned.append(
                PrunedOp(
                    PlanContext(c, s, stamp, n_rows),
                    counts[w],
                    "region" if k < n_shards else "sketch",
                )
            )
    else:
        mask = np.ones((n, n_shards), dtype=bool)
    # Kept (query, shard) pairs in op order: window, then shard, then
    # stream position — shard-major out of the mask, one stable sort on
    # the (window, shard) key.  Query columns are gathered once; an op's
    # positions and queries are slices of that.
    shard_of, row = mask.T.nonzero()
    pair = window_of[row] * n_shards + shard_of
    by_pair = np.argsort(pair, kind="stable")
    pair, row = pair[by_pair], row[by_pair]
    positions = row if order is None else order[row]
    t, x, y = queries.t[positions], queries.x[positions], queries.y[positions]
    for column in (t, x, y):
        column.flags.writeable = False
    runs = _runs(pair)
    slice_for = binding.slice_for
    for key, lo, hi in zip(pair[runs[:-1]].tolist(), runs, runs[1:]):
        c, s = cs[key // n_shards], key % n_shards
        stamp, _sub, gids = slice_for(s, c)
        if not len(gids):
            continue
        ops.append(
            ScanOp(
                PlanContext(c, s, stamp, len(gids)),
                method,
                positions[lo:hi],
                QueryBatch._of_columns(t[lo:hi], x[lo:hi], y[lo:hi]),
            )
        )
    merge = MergeOp(n, binding.stream_rows())
    return ExecutionPlan(
        binding, queries, tuple(ops), merge, method, pruned=tuple(pruned)
    )
