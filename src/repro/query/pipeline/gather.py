"""Exact scatter-gather primitives: the tile kernel and the block reduces.

These are the numerics behind merge-shaped plans (hit-emitting
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

The gather is **blocked** (the loop lives in
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

This is the only exact gather there is: a query's answer reads nothing
of any other query's, so a plan cut into contiguous ranges of queries
gives, range by range, the bytes of the whole plan — which is how
:class:`~repro.query.pipeline.parallel.ProcessPlanExecutor` spreads one
plan over worker processes, each running this same loop and returning
17 bytes a query.  The whole-op form it replaced (every hit of the plan
as a triple, one global sort) is ``tests/reference_gather.py``, the
oracle the blocked gather is held byte-equal to.
"""

from __future__ import annotations

import threading
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.query.base import QueryBatch
from repro.query.indexed import IndexedProcessor
from repro.query.pipeline.binding import BoundSlice

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


def merged_rows(bounds: Sequence[BoundSlice]):
    """``(x, y, s)`` of the bound slices' rows in ascending global
    stream position — the rows :func:`reduce_row_block` needs (every row
    is owned by one slice, and a slice's gids ascend): a single slice's
    columns as they are, else one stable sort of the concatenated gids —
    a merge of sorted runs."""
    subs = [sub for _stamp, sub, _gids in bounds]
    if len(subs) == 1:
        return subs[0].x, subs[0].y, subs[0].s
    order = np.argsort(np.concatenate([gids for *_, gids in bounds]), kind="stable")
    return tuple(
        np.concatenate([getattr(sub, col) for sub in subs]).take(order)
        for col in ("x", "y", "s")
    )


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
