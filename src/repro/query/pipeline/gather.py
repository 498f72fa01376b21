"""Exact scatter-gather primitives: the tile kernel and the block reduces.

These are the numerics behind merge-shaped plans (``emit="hits"``
:class:`~repro.query.pipeline.plan.ScanOp` + ``MergeOp``).  A query's
answer is the mean of the sensor values of every stream row within the
radius, summed **in global stream order**: a query's hits are taken in
canonical ``(query position, global stream position)`` order and its
values summed with one segmented ``np.add.reduceat``.  Every tuple is
owned by exactly one shard and keeps its global stream position, so the
ordered hit sequence — and hence every summed byte — depends only on
the query and the stream, never on how regions carved it up: answers
are byte-identical for every shard count
(``tests/test_engine_equivalence.py`` enforces this).

In process the gather is **blocked** (the loop lives in
:meth:`PlanExecutor._run_merge <repro.query.pipeline.executor.PlanExecutor>`):
queries are walked in blocks of :data:`BLOCK_CELLS` ``queries x rows``
cells (more where hits are sparse, see :func:`block_budget`), the
distance tile is computed in place in a per-thread workspace
(:func:`scan_tile`), and the block's hits are summed straight into the
result.  The canonical order is had one of two ways, chosen per window
by the executor:

* **by construction** (:func:`reduce_row_block`) — the tile's rows are
  a window's naive slices merged once in ascending stream position, so
  the tile's row-major hits *are* in canonical order: the values are
  one ``take``, a query's segment is the run between two row
  boundaries.  No keys, no sort, nothing per hit but the take.
* **by keys** (:func:`scan_pairs` / :func:`index_pairs` +
  :func:`reduce_hit_block`) — each source reports ``(query, row)``
  pairs, which get an int64 composite key and one stable sort per
  block.  For what cannot be had in order for less than the keys cost:
  index sources (rows come in index order) and sparse windows of many
  small source-sets.

Nothing proportional to the plan's hit count is ever allocated — see
"Memory discipline of the exact gather" in ``docs/architecture.md`` for
why that matters more than the arithmetic.

:func:`scan_hits` / :func:`index_hits` / :func:`merge_hit_partials` are
the same numerics in whole-op units: hit triples are the **wire format**
of :class:`~repro.query.pipeline.parallel.ProcessPlanExecutor`, whose
workers' partials must cross a pipe before the parent merges them.
"""

from __future__ import annotations

import threading
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.query.base import BatchResult, QueryBatch
from repro.query.indexed import IndexedProcessor

#: Cells (queries x scanned rows) one block of the exact gather covers
#: at least, and exactly until the plan has shown its hit density.  A
#: block holds whole queries: ``budget // rows`` of a row group's (every
#: query of a group scans the same merged rows), or, in a keyed window,
#: queries until the rows of the slices that scan them add up to it.
#: Chosen by measurement at the socket (``benchmarks/e2e``,
#: ``heatmap_scan``; the sweep is in ``docs/architecture.md``): much
#: smaller and per-block Python dispatch dominates; larger and a block's
#: hit arrays outgrow the allocator's bins and are mapped, zero-filled
#: and trimmed afresh on every request.  That is a statement about
#: *hits* made in cells: the sweep ran at a city-wide heatmap's density
#: (30 % of cells hit, so ~10 K hits = ~80 KB per hit array, under
#: glibc's 128 KB mmap threshold; a row group next to its one source
#: reads 60 %, so ~20 K hits).  The denser case was checked too (3 km
#: radius, ~90 % of cells hit, so 256 KB arrays): p50 93.8 ms at the
#: parent, 39.2 ms with this block, 42.9 ms with blocks cut down to
#: ~10 K hits — the large arrays show as a p95 tail (52 vs 46 ms), not
#: as the cliff whole-op arrays fell off, so blocks never shrink.
BLOCK_CELLS = 1 << 15

#: Hits a block is budgeted to hold once the density is known: a sparse
#: plan (small radius, many pruned slices) would otherwise spend its
#: time dispatching tiles of a few thousand cells with a handful of hits
#: each.  Blocks grow towards this many hits, up to :data:`BLOCK_SCALE`
#: times :data:`BLOCK_CELLS` so a thread's workspace stays ~2 MB.
BLOCK_HITS = 10_000
BLOCK_SCALE = 4


def block_budget(cells_seen: int, hits_seen: int) -> int:
    """Cells the next block may cover: enough to hold :data:`BLOCK_HITS`
    hits at the density the plan has shown so far, within
    ``[BLOCK_CELLS, BLOCK_SCALE * BLOCK_CELLS]``."""
    cells = BLOCK_HITS * cells_seen // max(hits_seen, 1)
    return max(BLOCK_CELLS, min(cells, BLOCK_SCALE * BLOCK_CELLS))


# Exact hit partials: parallel (query position, global stream position,
# sensor value) arrays — what process workers send back to the parent.
HitPartial = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Local ``(query index, row index)`` hit pairs of one op over a query
#: range: query indices non-decreasing, and — for the naive scan only —
#: row indices ascending within each query.
HitPairs = Tuple[np.ndarray, np.ndarray]


class _Workspace(threading.local):
    """Per-thread distance-tile scratch, grown to the largest tile the
    thread has needed and never freed — pure scratch, no state survives
    a :func:`scan_tile` call."""

    def __init__(self) -> None:
        self._cells = 0

    def tiles(self, k: int, n: int):
        cells = k * n
        if cells > self._cells:
            self._d = np.empty(cells)
            self._e = np.empty(cells)
            self._inside = np.empty(cells, dtype=bool)
            self._cells = cells
        inside = self._inside[:cells]
        return (
            self._d[:cells].reshape(k, n),
            self._e[:cells].reshape(k, n),
            inside.reshape(k, n),
            inside,
        )


_workspace = _Workspace()


def scan_tile(
    wx: np.ndarray, wy: np.ndarray, qx: np.ndarray, qy: np.ndarray, radius_m: float
) -> np.ndarray:
    """Flat row-major hit indices of the ``queries x rows`` distance tile.

    The one place the hit-emitting distance test lives:
    ``(wx - qx)² + (wy - qy)² <= r²`` evaluated tile-wise into the
    thread's workspace (bit-for-bit the expression
    :meth:`NaiveProcessor.process_batch` evaluates with temporaries).
    Index ``q * len(wx) + r`` says row ``r`` is within the radius of
    query ``q``; indices ascend, so hits come out query by query and,
    within a query, in row order.
    """
    d, e, inside, inside_flat = _workspace.tiles(len(qx), len(wx))
    np.subtract(wx[None, :], qx[:, None], out=d)
    np.square(d, out=d)
    np.subtract(wy[None, :], qy[:, None], out=e)
    np.square(e, out=e)
    np.add(d, e, out=d)
    np.less_equal(d, radius_m * radius_m, out=inside)
    return inside_flat.nonzero()[0]


def scan_pairs(
    window: TupleBatch, queries: QueryBatch, lo: int, hi: int, radius_m: float
) -> HitPairs:
    """Hit pairs of the naive radius scan for ``queries[lo:hi]``:
    :func:`scan_tile` split into ``(query, row)`` indices — what a keyed
    block needs to build its composite keys."""
    n = len(window)
    flat = scan_tile(window.x, window.y, queries.x[lo:hi], queries.y[lo:hi], radius_m)
    qi = flat // n
    ti = flat - qi * n
    if lo:
        qi += lo
    return qi, ti


def index_pairs(
    processor: IndexedProcessor, queries: QueryBatch, lo: int, hi: int
) -> HitPairs:
    """Hit pairs via an index — identical hit set to :func:`scan_pairs`,
    rows in whatever order the index reports them."""
    hit_lists = processor.query_radius_bulk(queries.x[lo:hi], queries.y[lo:hi])
    counts = np.fromiter(map(len, hit_lists), dtype=np.intp, count=hi - lo)
    qi = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
    ti = np.fromiter(
        (i for hits in hit_lists for i in hits), dtype=np.intp, count=len(qi)
    )
    return qi, ti


def reduce_hit_block(
    keys: List[np.ndarray],
    vals: List[np.ndarray],
    edges: np.ndarray,
    positions: np.ndarray,
    values: np.ndarray,
    support: np.ndarray,
) -> None:
    """Sort and sum one keyed block's hits into ``values`` / ``support``.

    ``keys`` / ``vals`` are the per-source composite keys (``query
    position * stride + global stream position``) and sensor values of
    the block; ``positions`` are the block's query positions (ascending)
    and ``edges`` their keys' lower bounds (``positions * stride``) plus
    one bound above every key of the block.
    """
    if not keys:
        return
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    key = key[order]
    val = np.concatenate(vals)[order]
    bounds = key.searchsorted(edges)
    counts = bounds[1:] - bounds[:-1]
    hit = counts.nonzero()[0]
    sums = np.add.reduceat(val, bounds[hit])
    values[positions[hit]] = sums / counts[hit]
    support[positions] = counts


def reduce_row_block(
    flat: np.ndarray,
    s: np.ndarray,
    positions: np.ndarray,
    values: np.ndarray,
    support: np.ndarray,
) -> None:
    """Sum one block's hits into ``values`` / ``support`` — no keys, no sort.

    ``flat`` are :func:`scan_tile`'s hit indices (consumed: rewritten in
    place) for the queries at ``positions`` (ascending) over rows whose
    sensor values are ``s``, **in ascending global stream position**.
    Row-major order then *is* the canonical ``(query, stream position)``
    order, so a query's hits are the run between two row boundaries of
    the tile and its values one ``take`` — the same per-query value
    sequence :func:`reduce_hit_block` hands to ``np.add.reduceat``.
    """
    if not len(flat):
        return  # support stays 0, values NaN
    starts = np.arange(len(positions) + 1) * len(s)
    bounds = flat.searchsorted(starts)
    counts = bounds[1:] - bounds[:-1]
    hit = counts.nonzero()[0]
    flat -= starts[:-1].repeat(counts)  # tile index -> row index
    sums = np.add.reduceat(s.take(flat), bounds[hit])
    values[positions[hit]] = sums / counts[hit]
    support[positions] = counts


# -- whole-op units: the process executor's wire format -----------------------


def scan_hits(
    window: TupleBatch, gids: np.ndarray, queries: QueryBatch, radius_m: float
) -> HitPartial:
    """All ``(query, stream position, value)`` hit triples of a radius scan.

    ``gids`` are the window rows' global stream positions, aligned with
    ``window``.  Walks the queries in :data:`BLOCK_CELLS` tiles of
    :func:`scan_pairs`, so a worker's footprint stays the hit triples it
    must ship anyway.
    """
    m, n = len(queries), len(window)
    if not m or not n:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    step = max(1, BLOCK_CELLS // n)
    pairs = [
        scan_pairs(window, queries, lo, min(lo + step, m), radius_m)
        for lo in range(0, m, step)
    ]
    qi, ti = (np.concatenate(part) for part in zip(*pairs))
    return qi, gids[ti], window.s[ti]


def index_hits(
    processor: IndexedProcessor, gids: np.ndarray, queries: QueryBatch
) -> HitPartial:
    """Hit triples via an index — identical hit set to :func:`scan_hits`."""
    qi, ti = index_pairs(processor, queries, 0, len(queries))
    return qi, gids[ti], processor.window.s[ti]


def merge_hit_partials(
    n_queries: int,
    n_stream_rows: int,
    partials: Sequence[HitPartial],
    queries: QueryBatch,
) -> BatchResult:
    """Exact partition-independent gather of whole-op hit partials.

    The parent side of the process executor (in process the blocked
    gather does the same per block) and the reference
    ``tests/test_exact_gather.py`` holds :func:`reduce_hit_block`
    byte-equal to — so do not optimise it independently: it is the
    second statement of the sort-then-segmented-sum, kept deliberately
    plain.  Hits are put in canonical
    ``(query, stream position)`` order — a single stable sort of the
    composite int64 key — and each query's values are summed with one
    segmented ``np.add.reduceat``.  A tuple is owned by exactly one
    shard and its stream position never changes, so the canonical
    sequence per query is *the stream order itself*: every output byte
    is independent of the region partition, and the 1-shard and N-shard
    configurations agree exactly.
    """
    values = np.full(n_queries, np.nan)
    support = np.zeros(n_queries, dtype=np.int64)
    live = [p for p in partials if len(p[0])]
    if live:
        probe = np.concatenate([p for p, _, _ in live])
        gid = np.concatenate([g for _, g, _ in live])
        vals = np.concatenate([v for _, _, v in live])
        # Under concurrent ingest a hit's gid can transiently exceed the
        # row counter the caller read; widen the stride so the composite
        # sort key stays collision-free either way.
        stride = np.int64(max(n_stream_rows, int(gid.max()) + 1, 1))
        order = np.argsort(probe.astype(np.int64) * stride + gid, kind="stable")
        probe = probe[order]
        vals = vals[order]
        seg_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(probe) != 0) + 1)
        )
        sums = np.add.reduceat(vals, seg_starts)
        hit_queries = probe[seg_starts]
        counts = np.bincount(probe, minlength=n_queries)
        support = counts.astype(np.int64)
        values[hit_queries] = sums / counts[hit_queries]
    return BatchResult(queries, values, support, answered=support > 0)
