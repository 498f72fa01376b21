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
distance tile is computed in place in a reused workspace, and the
block's hits are summed straight into the result.  The tile has two
forms with the same bytes:

* **six passes** (:func:`scan_tile`) — subtract and square per axis,
  add, compare, over every ``query x row`` cell;
* **from axis tables** (:func:`scan_axis_tile`) — for a plan whose
  queries share coordinates (a heatmap's grid: 1 200 probes, 40
  distinct x and 30 distinct y), a row group squares each axis offset
  once per distinct coordinate (:func:`axis_tables`) and a block is two
  row takes, an add and a compare.  The executor decides once per plan
  (:func:`query_axes`: one ``argsort`` per axis) and then per row
  group (:func:`group_axes`): tables are used where they are smaller
  than the tile.  A route's points are all distinct and never build
  one.

A plan of several windows that together fit one block — a route — is
scanned as one **ragged tile** instead (:func:`scan_ragged_tile`): each
window's queries over that window's rows only, every window's block
laid after the one before it, then one square, add, compare and
``nonzero`` for all of them, reduced by :func:`reduce_ragged_block`.

The canonical order is had one of two ways, chosen per window by the
executor:

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

from typing import List, Optional, Sequence, Tuple

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
#: times :data:`BLOCK_CELLS` so a workspace's tiles stay ~2 MB.
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


class Workspace:
    """Scratch for the distance tile and the axis tables, each buffer
    grown to the largest its users have needed and never freed: fresh
    arrays of this size cost more in page faults than the passes over
    them.  A tile holds nothing past its call; the tables hold until
    the next :func:`axis_tables` call on the same workspace.  One user
    at a time: take one with :func:`workspace`."""

    def __init__(self) -> None:
        self._cells = 0
        self._dx2 = self._dy2 = np.empty(0)

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

    def tables(self, kx: int, ky: int, n: int):
        if kx * n > len(self._dx2):
            self._dx2 = np.empty(kx * n)
        if ky * n > len(self._dy2):
            self._dy2 = np.empty(ky * n)
        return self._dx2[: kx * n].reshape(kx, n), self._dy2[: ky * n].reshape(ky, n)


#: Workspaces no one is using, the most recently returned last.
_spare: List[Workspace] = []


class workspace:
    """A workspace to oneself for a ``with`` block: the most recently
    returned spare (its buffers already grown and mapped), else a new
    one.  There are as many workspaces as gathers ever ran at once, not
    one per thread that ever ran one: a server's executor hands even a
    single connection's requests to several threads in turn, and
    per-thread buffers were paid once per thread.  ``list.pop`` and
    ``append`` are atomic, so no lock.  (A class, not a generator:
    ≈ 1 µs a use against ≈ 2 µs, paid by every small scan.)"""

    def __enter__(self) -> Workspace:
        try:
            self._ws = _spare.pop()
        except IndexError:
            self._ws = Workspace()
        return self._ws

    def __exit__(self, *exc) -> None:
        _spare.append(self._ws)


def scan_tile(
    wx: np.ndarray,
    wy: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    radius_m: float,
    ws: Optional[Workspace] = None,
) -> np.ndarray:
    """Flat row-major hit indices of the ``queries x rows`` distance tile.

    The hit-emitting distance test: ``(wx - qx)² + (wy - qy)² <= r²``
    evaluated tile-wise into ``ws`` (a spare workspace when None): six
    arithmetic passes over the tile, each subtract after a copy of the
    rows' coordinates (:func:`_broadcast_subtract`) — bit-for-bit the
    expression :meth:`NaiveProcessor.process_batch` evaluates with
    temporaries.
    Index ``q * len(wx) + r`` says row ``r`` is within the radius of
    query ``q``; indices ascend, so hits come out query by query and,
    within a query, in row order.  Queries that share coordinates — a
    heatmap's grid — take :func:`scan_axis_tile` instead, which gives
    the same indices.
    """
    if ws is None:
        with workspace() as ws:
            return scan_tile(wx, wy, qx, qy, radius_m, ws)
    d, e, inside, inside_flat = ws.tiles(len(qx), len(wx))
    _broadcast_subtract(d, wx, qx)
    np.square(d, out=d)
    _broadcast_subtract(e, wy, qy)
    np.square(e, out=e)
    np.add(d, e, out=d)
    np.less_equal(d, radius_m * radius_m, out=inside)
    return inside_flat.nonzero()[0]


def _broadcast_subtract(out: np.ndarray, rows: np.ndarray, q: np.ndarray) -> None:
    """``out[i, r] = rows[r] - q[i]``: the same IEEE subtract per cell as
    ``np.subtract(rows[None, :], q[:, None], out=out)``, as a copy of
    ``rows`` down ``out`` and one in-place subtract of ``q``'s column.

    Measured on the tile's shapes (2-core host, numpy 2.4, interleaved,
    median of 5): 0.72-0.85x the one-call form from 100 x 300 cells up,
    1.05x at 60 x 60.  A ragged tile keeps the one-call form per window:
    there, with four queries a window, this one was 1.11x."""
    out[...] = rows
    np.subtract(out, q[:, None], out=out)


#: A plan's queries by distinct coordinate, per axis: ``(ux, ix, uy,
#: iy)`` with ``ux[ix] == qx`` and ``uy[iy] == qy`` (``np.unique``'s
#: values and inverse).
QueryAxes = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def query_axes(qx: np.ndarray, qy: np.ndarray) -> Optional[QueryAxes]:
    """The plan's :data:`QueryAxes`, or None when its axis tables could
    not be smaller than its tile — fewer distinct x plus distinct y than
    queries is what a grid of probes has and a route's distinct points
    lack.  One ``argsort`` per axis, once per plan; a row group picks
    its own coordinates out with :func:`group_axes`.

    Distinct x are first counted off the sorted x (NaNs counted apart),
    and a plan that cannot pass — a route, a handful of queries — stops
    there, before any inverse is built: a fallback plan on the cached
    lanes has a few microseconds in all."""
    n = len(qx)
    if n < 3:
        return None
    order, sx, differ = _sorted_runs(qx)
    if 2 + np.count_nonzero(differ) >= n:  # and uy holds 1 at least
        return None
    ux, ix = _unique_inverse(order, sx, differ)
    uy, iy = _unique_inverse(*_sorted_runs(qy))
    if len(ux) + len(uy) >= n:
        return None
    return ux, ix, uy, iy


def _sorted_runs(q: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, q[order], differ)`` for a non-empty ``q``: its argsort,
    its sorted values, and where each sorted value differs from the one
    before it (``sq[1:] != sq[:-1]``: NaNs, sorted last, each differ)."""
    order = np.argsort(q)
    sq = q[order]
    return order, sq, sq[1:] != sq[:-1]


def _unique_inverse(
    order: np.ndarray, sq: np.ndarray, differ: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(q, return_inverse=True)`` from :func:`_sorted_runs`
    of ``q`` (``differ`` is consumed): the distinct values, NaNs as one,
    and each value's code — without sorting ``q`` a second time."""
    if np.isnan(sq[-1]):
        differ[np.searchsorted(sq, sq[-1]) :] = False  # the NaNs: one value
    codes = np.empty(len(sq), dtype=np.intp)
    codes[order[0]] = 0
    codes[order[1:]] = np.cumsum(differ)
    return np.concatenate((sq[:1], sq[1:][differ])), codes


def _present(u: np.ndarray, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The coordinates of ``u`` that ``codes`` use, and the codes
    renumbered onto them (a mask and a running count: no sort)."""
    used = np.zeros(len(u), dtype=bool)
    used[codes] = True
    return u[used], (np.cumsum(used) - 1)[codes]


def group_axes(axes: QueryAxes, positions: np.ndarray) -> Optional[QueryAxes]:
    """The :data:`QueryAxes` of the plan's queries at ``positions``,
    narrowed to the coordinates they use, or None when their tables
    would not be smaller than their tile: ``kx + ky`` table rows cost
    two passes each to build and save two of a tile row's six, so they
    pay once ``kx + ky`` is under the group's queries."""
    ux, ix, uy, iy = axes
    gux, gix = _present(ux, ix[positions])
    guy, giy = _present(uy, iy[positions])
    if len(gux) + len(guy) >= len(positions):
        return None
    return gux, gix, guy, giy


def axis_tables(
    ws: Workspace, wx: np.ndarray, wy: np.ndarray, ux: np.ndarray, uy: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``DX2[u, r] = (wx[r] - ux[u])²`` and ``DY2[v, r] = (wy[r] -
    uy[v])²``, computed in place in ``ws`` — the squared axis offsets
    of every distinct query coordinate, for :func:`scan_axis_tile`.
    Valid until the next call on ``ws``."""
    dx2, dy2 = ws.tables(len(ux), len(uy), len(wx))
    _broadcast_subtract(dx2, wx, ux)
    np.square(dx2, out=dx2)
    _broadcast_subtract(dy2, wy, uy)
    np.square(dy2, out=dy2)
    return dx2, dy2


def scan_axis_tile(
    ws: Workspace,
    dx2: np.ndarray,
    dy2: np.ndarray,
    ix: np.ndarray,
    iy: np.ndarray,
    radius_m: float,
) -> np.ndarray:
    """:func:`scan_tile`'s hit indices for queries at ``(ux[ix], uy[iy])``
    from their :func:`axis_tables`: two row takes, an add and a compare,
    into the tile of ``ws`` (the workspace may hold the tables too).

    The bytes are :func:`scan_tile`'s: each cell's squared offsets are
    the same IEEE subtract and square (``ux[ix[q]]`` *is* query ``q``'s
    coordinate — up to the sign of a zero, which the square drops),
    then the same add and compare, so the same cells hit, in the same
    order.  ``mode="clip"`` lets ``take`` write straight into the tile
    (the default buffers it); every code is in range anyway.
    """
    d, e, inside, inside_flat = ws.tiles(len(ix), dx2.shape[1])
    np.take(dx2, ix, axis=0, out=d, mode="clip")
    np.take(dy2, iy, axis=0, out=e, mode="clip")
    np.add(d, e, out=d)
    np.less_equal(d, radius_m * radius_m, out=inside)
    return inside_flat.nonzero()[0]


#: One window of a ragged tile: its queries ``[q0, q1)`` scan its rows
#: ``[r0, r1)``, from cell ``at`` of the tile on.
Span = Tuple[int, int, int, int, int]


def scan_ragged_tile(
    ws: Workspace,
    x: np.ndarray,
    y: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    spans: Sequence[Span],
    radius_m: float,
) -> np.ndarray:
    """Flat hit indices of a tile whose queries each scan only their
    own window's rows: every :data:`Span` is a ``queries x rows`` block
    laid after the one before it in the workspace's tile.

    Each block gets :func:`scan_tile`'s subtracts, and the whole tile
    its squares, add and compare, in place — every cell the same IEEE
    operations as :func:`scan_tile`'s on that query and row, so a query
    hits the same rows, in row order.  One ``nonzero`` for the whole
    tile; :func:`reduce_ragged_block` sums it.
    """
    q0, q1, r0, r1, at = spans[-1]
    d, e, inside, inside_flat = ws.tiles(1, at + (q1 - q0) * (r1 - r0))
    d, e = d[0], e[0]
    for q0, q1, r0, r1, at in spans:
        end = at + (q1 - q0) * (r1 - r0)
        shape = (q1 - q0, r1 - r0)
        np.subtract(x[None, r0:r1], qx[q0:q1, None], out=d[at:end].reshape(shape))
        np.subtract(y[None, r0:r1], qy[q0:q1, None], out=e[at:end].reshape(shape))
    np.square(d, out=d)
    np.square(e, out=e)
    np.add(d, e, out=d)
    np.less_equal(d, radius_m * radius_m, out=inside[0])
    return inside_flat.nonzero()[0]


def merged_rows(bounds: Sequence[BoundSlice]):
    """``(x, y, s)`` of the bound slices' rows in ascending global
    stream position — the rows :func:`reduce_row_block` needs (every row
    is owned by one slice, and a slice's gids ascend): a single slice's
    columns as they are, else one stable sort of the concatenated gids —
    a merge of sorted runs — and one concatenation and one ``take`` for
    the three columns together (rows of a ``(3, rows)`` array)."""
    if len(bounds) == 1:
        sub = bounds[0][1]
        return sub.x, sub.y, sub.s
    order = np.argsort(np.concatenate([gids for *_, gids in bounds]), kind="stable")
    subs = [sub for _stamp, sub, _gids in bounds]
    columns = np.concatenate(
        [sub.x for sub in subs] + [sub.y for sub in subs] + [sub.s for sub in subs]
    )
    x, y, s = columns.reshape(3, len(order)).take(order, axis=1)
    return x, y, s


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

    ``flat`` are the tile's hit indices (:func:`scan_tile` or
    :func:`scan_axis_tile`; consumed: rewritten in place) for the
    queries at ``positions`` (ascending) over rows whose sensor values
    are ``s``, **in ascending global stream position**.
    Row-major order then *is* the canonical ``(query, stream position)``
    order, so a query's hits are the run between two row boundaries of
    the tile and its values one ``take`` — the same per-query value
    sequence :func:`reduce_hit_block` hands to ``np.add.reduceat``.
    """
    starts = np.arange(len(positions) + 1) * len(s)
    reduce_ragged_block(flat, s, starts, starts[:-1], positions, values, support)


def reduce_ragged_block(
    flat: np.ndarray,
    s: np.ndarray,
    starts: np.ndarray,
    shift: np.ndarray,
    positions: np.ndarray,
    values: np.ndarray,
    support: np.ndarray,
) -> None:
    """:func:`reduce_row_block` for a tile whose queries scan rows of
    their own (:func:`scan_ragged_tile`): query ``q``'s cells are
    ``[starts[q], starts[q + 1])``, and its cell ``i`` scans row ``i -
    shift[q]`` of ``s``, the rows in ascending global stream position.
    ``flat`` is consumed."""
    if not len(flat):
        return  # support stays 0, values NaN
    bounds = flat.searchsorted(starts)
    counts = bounds[1:] - bounds[:-1]
    hit = counts.nonzero()[0]
    flat -= shift.repeat(counts)  # tile index -> row index
    sums = np.add.reduceat(s.take(flat), bounds[hit])
    values[positions[hit]] = sums / counts[hit]
    support[positions] = counts
