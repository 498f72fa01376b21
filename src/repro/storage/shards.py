"""Region-sharded storage: one shard column per region.

At platform scale (millions of app users over one city) one store
holding every tuple is the bottleneck for both ingest and queries.  The
:class:`ShardRouter` splits the stream by *geographic region* — a
:class:`~repro.geo.region.RegionGrid` over the sensed area — so each
shard's column holds only its region's tuples and ingest touches (and
invalidates) exactly one shard per tuple.

Sharding must not change query answers.  The query layer's unit of
eligibility is the *global* count-window ``W_c`` (the first ``h`` tuples
of the stream, the next ``h``, ...), which region-split streams do not
reproduce on their own.  The router therefore records, at every global
window boundary it ingests across, the per-shard row offset — the number
of that shard's tuples among the first ``c * h`` global tuples.  The
slice of shard ``s`` between two recorded offsets is exactly the part of
``W_c`` that shard owns, so the union of :meth:`shard_window` slices over
all shards is exactly the global window's tuple multiset, whatever the
shard count.  That alignment is what lets the sharded query engine
(:mod:`repro.query.sharded`) return answers byte-identical across shard
counts.

Global window-for-time resolution needs no merged stream either: the
router keeps the first-tuple time of every started global window, and
with a time-sorted global stream (the ingest contract :meth:`ShardRouter.ingest`
enforces) the window responsible for time ``t`` is the last one whose
first tuple is at or before ``t``.

*Where* a shard's rows live is not the router's business: it delegates
that — and only that — to a window store.  :class:`ResidentWindowStore`
(here) keeps every shard's column in RAM; the durable
:class:`~repro.storage.tiered.SegmentWindowStore` keeps an open-tail
column plus a bounded set of sealed windows over segment files and a WAL.
Routing, gids, cuts, epochs, sketches, load statistics and the lock are
the router's alone, whichever store sits under it.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.data.windows import window_boundaries_in
from repro.geo.coords import BoundingBox
from repro.geo.region import RefinedRegionGrid, RegionGrid
from repro.storage.load import ShardLoadStat, ShardLoadTracker
from repro.storage.sketch import WindowSketch

#: Initial capacity of a numeric column.  Small, because a segment
#: store starts a fresh open-tail column per shard at every seal.
_CHUNK = 256


class StaleLayoutError(RuntimeError):
    """A snapshot binding pinned one shard layout but the router has
    since rebalanced to another.  Raised only for *unresolved* reads —
    slices pinned before the rebalance stay valid forever (the retired
    layout's arrays are immutable), which is what keeps in-flight plans
    byte-identical across a rebalance."""


class _NumericColumn:
    """Growable float64/int64 column backed by one doubling buffer.

    The buffer is only ever written at positions ``>= len(self)``, so the
    read-only prefix views handed out by :meth:`snapshot` stay stable as
    the column grows; a reallocation on growth copies the filled prefix
    into the new buffer before the swap and leaves earlier snapshots
    pointing at the old one.
    """

    __slots__ = ("dtype", "_buf", "_len", "_view")

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = dtype
        self._buf = np.empty(_CHUNK, dtype=dtype)
        self._len = 0
        self._view: Optional[np.ndarray] = None

    def prepare_bulk(self, values) -> np.ndarray:
        """Validate/convert an array for :meth:`extend` without mutating."""
        arr = np.asarray(values, dtype=self.dtype)
        if arr.ndim != 1:
            raise ValueError(f"column data must be one-dimensional, got {arr.ndim}-d")
        return arr

    def extend(self, values) -> None:
        """Vectorised bulk append: one slice assignment, no Python loop."""
        arr = self.prepare_bulk(values)
        k = len(arr)
        if not k:
            return
        need = self._len + k
        cap = len(self._buf)
        if need > cap:
            while cap < need:
                cap *= 2
            buf = np.empty(cap, dtype=self.dtype)
            buf[: self._len] = self._buf[: self._len]
            self._buf = buf
        self._buf[self._len : need] = arr
        self._len = need
        self._view = None

    def __len__(self) -> int:
        return self._len

    def snapshot(self) -> np.ndarray:
        """Immutable zero-copy view of the whole column (cached).

        Safe to call concurrently with an appender: the filled length is
        loaded *before* the buffer, so whichever buffer generation the
        read lands on contains a fully-written prefix of that length.
        The cache is validated by length and buffer identity, so a
        racing reader re-caching a stale view only costs the next caller
        a rebuild, never a torn read.
        """
        n = self._len
        view = self._view
        if view is None or view.shape[0] != n or view.base is not self._buf:
            view = self._buf[:n]
            view.flags.writeable = False
            self._view = view
        return view


class _ShardColumn:
    """One shard's in-memory rows: five growable 1-D columns (``t``,
    ``x``, ``y``, ``s`` float64 and the global stream position ``gid``
    int64) committed by one row count.  The gid is the
    partition-invariant identity the exact gather path orders hits by.

    Writes come from one writer at a time (the router lock); reads are
    lock-free.  :meth:`append` fills every column past the committed
    length and advances the count last, and :meth:`rows` loads the
    count before any buffer, so a reader never sees a torn row or a row
    without its gid — the ``(rows, gids)`` pair it returns is a
    zero-copy, contiguous, immutable prefix whichever side of an
    in-flight append (or buffer reallocation) it lands on.
    """

    __slots__ = ("_columns", "_n", "_view")

    def __init__(self) -> None:
        self._columns = tuple(
            _NumericColumn(np.dtype(dtype))
            for dtype in (np.float64,) * 4 + (np.int64,)
        )
        self._n = 0
        self._view: Optional[Tuple[TupleBatch, np.ndarray]] = None

    def append(self, sub: TupleBatch, gids: np.ndarray) -> None:
        """Append rows with their gids; a malformed pair (a gid count
        unlike the row count, a gid array that is not 1-D) raises
        ``ValueError`` before any column changes."""
        values = [
            column.prepare_bulk(v)
            for column, v in zip(self._columns, (sub.t, sub.x, sub.y, sub.s, gids))
        ]
        if len(values[4]) != len(sub):
            raise ValueError(f"{len(values[4])} gids for {len(sub)} rows")
        for column, v in zip(self._columns, values):
            column.extend(v)
        self._n += len(sub)

    def rows(self) -> Tuple[TupleBatch, np.ndarray]:
        """The committed ``(rows, gids)`` pair (cached until the next
        append)."""
        n = self._n
        view = self._view
        if view is None or len(view[1]) != n:
            t, x, y, s, gids = (column.snapshot()[:n] for column in self._columns)
            view = (TupleBatch._of_columns(t, x, y, s), gids)
            self._view = view
        return view


class ResidentWindowStore:
    """Window store that keeps every shard's whole column in RAM.

    A window store answers one question for the router — *where do shard
    ``s``'s rows live* — through :meth:`log` (durability hook, before
    any state changes), :meth:`append` (one shard's share of a batch, in
    stream order), :meth:`window` (the rows of one ``(shard, window)``
    slice, given the shard-local row range the router's cuts assign it),
    :meth:`seal` (after a batch is applied) and :meth:`column` (a
    shard's whole column, the input of a layout re-cut).  It holds no
    lock of its own: every call arrives under the router's.
    """

    #: Each shard's rows are one contiguous in-memory prefix, which is
    #: what the process-parallel executor exports over shared memory.
    prefix_exportable = True

    def __init__(self, n_shards: int) -> None:
        self._columns = [_ShardColumn() for _ in range(n_shards)]

    def log(self, start_row: int, batch: TupleBatch) -> None:
        """Nothing to make durable: a resident store dies with the process."""

    def append(self, s: int, sub: TupleBatch, gids: np.ndarray) -> None:
        self._columns[s].append(sub, gids)

    def seal(self, router: "ShardRouter") -> None:
        """Sealed windows stay where they are."""

    def window(self, s: int, c: int, start: int, stop: int):
        """Zero-copy ``(rows, gids)`` of shard-local rows ``[start, stop)``."""
        batch, gids = self.column(s)
        return batch.slice(start, stop), gids[start:stop]

    def column(self, s: int):
        """Coherent ``(rows, gids)`` of shard ``s``'s whole committed
        column (lock-free; see :class:`_ShardColumn`)."""
        return self._columns[s].rows()

    def recut(self, n_slots: int, rebuilt, touched) -> "ResidentWindowStore":
        """The store of a re-cut layout, built aside: ``touched`` slots
        start empty, ``rebuilt`` maps slot -> (rows, gids) in gid order,
        every other slot shares its column with this store — which is
        never mutated, so a reader pinned on it keeps a coherent view of
        the retired layout forever."""
        store = ResidentWindowStore(0)
        columns = list(self._columns)
        columns.extend([None] * (n_slots - len(columns)))
        for slot in touched:
            columns[slot] = _ShardColumn()
        for slot, (batch, gids) in rebuilt.items():
            if len(batch):
                columns[slot].append(batch, gids)
        store._columns = columns
        return store


class ShardRouter:
    """Routes an append-only tuple stream across per-region shards.

    ``h`` is the *global* count-window size the query layer aligns to.
    The router owns everything that defines a window — routing, gids,
    the global cuts, content and layout epochs, zone-map sketches, load
    statistics and the one lock — and delegates where a shard's rows
    live to its window store (:class:`ResidentWindowStore` here; the
    durable :class:`~repro.storage.tiered.TieredShardRouter` plugs in a
    segment-file store and adds nothing else to the protocol).

    The global stream must be delivered in time order (the append-only
    sensing contract the rest of the system already assumes, enforced
    by :meth:`ingest`); per-shard streams then stay time-sorted too.
    """

    def __init__(self, grid: RegionGrid, h: int = 240) -> None:
        if h <= 0:
            raise ValueError("window size h must be positive")
        self.grid = grid
        self.h = h
        self._global_rows = 0
        self._shard_rows = [0] * grid.n_regions
        # _cuts[s][c] = number of shard-s tuples among the first c*h global
        # rows; one entry per *started* global window, starting with the
        # trivial cut at window 0.
        self._cuts: List[List[int]] = [[0] for _ in range(grid.n_regions)]
        # First-tuple time of every started global window (a growable
        # buffer; entries below global_window_count() are valid) — the
        # always-resident table windows_for_times searches.
        self._first_ts = np.empty(64, dtype=np.float64)
        # Timestamp of the last accepted tuple: the floor the ingest
        # contract holds the next batch to.
        self._last_t = -np.inf
        # Writer serialisation: one ingest at a time keeps the global row
        # counter, the cut offsets and the gids mutually consistent.  The
        # store is only ever called with this lock held.
        self._lock = threading.RLock()
        self._epoch = 0
        # Per shard: global window c -> epoch of the last ingest that
        # delivered tuples of W_c to that shard.  The stamp the sharded
        # query engine's processor caches key on (sealed windows freeze).
        self._window_epochs: List[Dict[int, int]] = [
            {} for _ in range(grid.n_regions)
        ]
        # Per shard: global window c -> zone-map sketch of exactly the
        # rows counted by _window_epochs[s][c]'s stamp.  Maintained
        # incrementally (O(delta rows) per ingest) under the same lock
        # that advances the stamp, so a sealed window's sketch is
        # immutable and the open window's sketch is re-stamped with
        # every content epoch it grows at.
        self._sketches: List[Dict[int, WindowSketch]] = [
            {} for _ in range(grid.n_regions)
        ]
        # Layout epoch: +1 per split/merge re-cut.  Bindings capture it
        # at construction; a mismatch on an *unresolved* read raises
        # StaleLayoutError instead of silently mixing two layouts.
        self._layout_epoch = 0
        # Per-shard load statistics (ingest rows under this lock, scan
        # observations from executor threads) — the rebalancer's input.
        self.load = ShardLoadTracker(grid.n_regions)
        self._store = self._open_store()

    def _open_store(self):
        """The window store this router's rows live in."""
        return ResidentWindowStore(self.grid.n_regions)

    # -- topology ----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.grid.n_regions

    @property
    def prefix_exportable(self) -> bool:
        """Whether the store keeps each shard's rows as one contiguous
        in-memory prefix (:meth:`shard_column`), which the
        process-parallel executor's shared-memory export reads.  A store
        that pages sealed windows out does not, and plans over it
        execute in-process instead."""
        return self._store.prefix_exportable

    def shard_column(self, s: int):
        """Coherent ``(rows, gids)`` of shard ``s``'s whole committed
        column, gids strictly increasing (routing preserves global order
        per shard).  Only a :attr:`prefix_exportable` store has one."""
        return self._store.column(s)

    def global_count(self) -> int:
        """Total tuples ingested across all shards."""
        return self._global_rows

    @property
    def epoch(self) -> int:
        """Monotone ingest epoch: +1 per non-empty :meth:`ingest` call
        (and per layout re-cut, which re-stamps the affected slots)."""
        return self._epoch

    @property
    def layout_epoch(self) -> int:
        """Monotone layout epoch: +1 per :meth:`split_shard` /
        :meth:`merge_cell` re-cut.  Unchanged by ordinary ingest (and
        therefore 0 forever over a store that refuses re-cuts)."""
        return self._layout_epoch

    def shard_load_stats(self) -> List[ShardLoadStat]:
        """Per-shard load counters (index = shard slot) — ingest rows,
        scan queries/units/seconds and the EWMA recent-load estimate the
        rebalancer ranks shards on."""
        return self.load.snapshot()

    def shard_window_epoch(self, s: int, c: int) -> int:
        """Epoch of the last ingest that delivered global-window-``c``
        tuples to shard ``s`` (0 if the slice is empty).  Frozen once the
        global window seals — the content stamp the sharded query engine
        keys its processor caches on.  Read the stamp *before* slicing
        the window: the slice is then at least as fresh as the stamp."""
        return self._window_epochs[s].get(int(c), 0)

    def shard_counts(self) -> List[int]:
        """Per-shard tuple counts (sums to :meth:`global_count`)."""
        return list(self._shard_rows)

    # -- ingest ------------------------------------------------------------

    def route(self, batch: TupleBatch) -> np.ndarray:
        """Owning shard index per tuple of ``batch`` (no ingestion)."""
        return self.grid.shards_of(batch.x, batch.y)

    def ingest(self, batch: TupleBatch) -> List[int]:
        """Append a batch, routing each tuple to its owning shard.

        Returns the number of tuples delivered per shard.  The batch
        must honour the ingest contract — finite timestamps and positions,
        time-sorted, starting no earlier than the last accepted tuple — or
        it is rejected with ``ValueError`` before the store logs it and
        before any state changes: one late tuple would silently corrupt
        :meth:`windows_for_times` for every later query, and a NaN
        position would land in cell 0.  An accepted
        batch is logged by the store first (durable before acknowledged),
        applied, and then the store seals whatever windows it completed.
        """
        n = len(batch)
        if not n:
            return [0] * self.n_shards
        with self._lock:
            if not np.isfinite(batch.t).all():
                raise ValueError("ingest batch has a non-finite timestamp")
            if not (np.isfinite(batch.x).all() and np.isfinite(batch.y).all()):
                raise ValueError("ingest batch has a non-finite position")
            if not batch.is_time_sorted():
                raise ValueError("ingest batch is not time-sorted")
            if batch.t[0] < self._last_t:
                raise ValueError(
                    "ingest batch starts before the last accepted timestamp: "
                    f"t={float(batch.t[0])} < {self._last_t}"
                )
            self._store.log(self._global_rows, batch)
            delivered = self._apply(batch)
            self._store.seal(self)
        return delivered

    def _apply(self, batch: TupleBatch) -> List[int]:
        """Apply an accepted batch (caller holds the lock): order within
        a shard follows global stream order, and the per-shard cut
        offsets for every global window boundary the batch crosses are
        recorded before the counters advance.  Recovery replays a WAL
        tail through this same body."""
        n = len(batch)
        # Sized under the lock: a split/merge re-cut between an
        # unlocked read and routing would widen the slot range.
        delivered = [0] * self.n_shards
        owners = self.route(batch)
        start = self._global_rows
        boundaries = window_boundaries_in(start, n, self.h)
        prior = list(self._shard_rows)
        gids = np.arange(start, start + n, dtype=np.int64)
        self._epoch += 1
        # First-tuple time of every window starting inside this batch
        # (global rows c0*h, (c0+1)*h, ... of the stream).
        c0 = -(-start // self.h)
        firsts = batch.t[c0 * self.h - start :: self.h]
        if c0 + len(firsts) > len(self._first_ts):
            grown = np.empty(2 * (c0 + len(firsts)), dtype=np.float64)
            grown[:c0] = self._first_ts[:c0]
            self._first_ts = grown
        self._first_ts[c0 : c0 + len(firsts)] = firsts
        for s in np.unique(owners):
            s = int(s)
            member = owners == s
            sub = batch.select_mask(member)
            self._store.append(s, sub, gids[member])
            delivered[s] = len(sub)
            self._shard_rows[s] += len(sub)
            self.load.record_ingest(s, delivered[s])
            wins = gids[member] // self.h
            for c in np.unique(wins):
                c = int(c)
                self._window_epochs[s][c] = self._epoch
                # Widen the window's zone map by exactly the rows
                # this delivery added to it — the sketch then always
                # describes the rows the fresh stamp counts.
                in_c = wins == c
                self._sketches[s][c] = self._sketches[s].get(
                    c, WindowSketch.EMPTY
                ).extended(sub.t[in_c], sub.x[in_c], sub.y[in_c], sub.s[in_c])
        if len(boundaries):
            # positions_s[k] = batch-local row of shard s's k-th tuple;
            # the number of shard-s tuples before global boundary b is
            # then a binary search over it — one vectorised call per
            # shard for all boundaries the batch crosses.
            local_b = np.asarray(boundaries, dtype=np.int64) - start
            for s in range(self.n_shards):
                if not delivered[s]:  # absent from the batch: cuts are flat
                    self._cuts[s].extend([prior[s]] * len(local_b))
                    continue
                positions = np.flatnonzero(owners == s)
                cuts = prior[s] + np.searchsorted(positions, local_b)
                self._cuts[s].extend(int(cut) for cut in cuts)
        self._global_rows += n
        self._last_t = float(batch.t[-1])
        return delivered

    # -- global window alignment -------------------------------------------

    def global_window_count(self) -> int:
        """Number of started global count-windows."""
        return (self._global_rows + self.h - 1) // self.h

    def _window_bounds(self, s: int, c: int) -> tuple:
        """Shard-local ``(start, stop)`` rows of started global window
        ``W_c`` in shard ``s`` (caller holds the lock; a store's ``seal``
        reads it for the windows it freezes)."""
        cuts = self._cuts[s]
        stop = cuts[c + 1] if c + 1 < len(cuts) else self._shard_rows[s]
        return cuts[c], stop

    def _window_slice(self, s: int, c: int):
        """``(rows, gids)`` of shard ``s``'s slice of ``W_c`` from the
        store (validates ``c``; caller holds the lock)."""
        c = int(c)
        if c < 0:
            raise ValueError("window index c must be non-negative")
        if c >= (self._global_rows + self.h - 1) // self.h:  # global_window_count
            raise IndexError(
                f"global window {c} (h={self.h}) starts past the stream end"
            )
        cuts = self._cuts[s]  # _window_bounds, inlined: every slice read
        stop = cuts[c + 1] if c + 1 < len(cuts) else self._shard_rows[s]
        return self._store.window(s, c, cuts[c], stop)

    def shard_window(self, s: int, c: int) -> TupleBatch:
        """Shard ``s``'s slice of the *global* window ``W_c`` (zero-copy).

        Raises ``IndexError`` when ``c`` is past the last started global
        window, mirroring :func:`repro.data.windows.window`.
        """
        with self._lock:
            return self._window_slice(s, c)[0]

    def shard_windows(self, c: int) -> List[TupleBatch]:
        """Every shard's slice of global window ``W_c`` (index = shard)."""
        return [self.shard_window(s, c) for s in range(self.n_shards)]

    def shard_window_gids(self, s: int, c: int) -> np.ndarray:
        """Global ids aligned with :meth:`shard_window`'s rows."""
        with self._lock:
            return self._window_slice(s, c)[1]

    def snapshot_window(self, s: int, c: int):
        """Coherent ``(content stamp, window slice, gid slice)`` triple.

        Taken under the router lock, so a concurrent ingest can never
        tear the triple: the stamp identifies exactly the rows in the
        slices, and the gids align with the window's rows.  Zero-copy
        slicing on a resident window (a store that pages windows out
        faults a cold one in here, under the same lock); callers scan
        outside the lock.  This is the read the sharded query engine's
        epoch-stamped caches key on.
        """
        with self._lock:
            batch, gids = self._window_slice(s, c)
            return self.shard_window_epoch(s, c), batch, gids

    def shard_window_sketch(self, s: int, c: int) -> WindowSketch:
        """Zone-map sketch of shard ``s``'s slice of global window ``c``.

        O(1): the sketch is maintained incrementally at ingest.  Sealed
        windows' sketches are immutable; the open window's sketch is
        replaced (sketches themselves are frozen) whenever an ingest
        grows the slice, in the same locked section that advances the
        content stamp.  An empty slice maps to
        :data:`WindowSketch.EMPTY`.
        """
        return self._sketches[s].get(int(c), WindowSketch.EMPTY)

    def window_stats(self, c: int) -> List[tuple]:
        """Unlocked per-shard ``(stamp, n_rows, read_epoch)`` estimates
        for global window ``c`` (index = shard), read off the maintained
        sketches in O(shards).  Estimates only — rows may tear under a
        concurrent ingest; they feed display records (pruned-op rows in
        plan explains, the CLI shards table), never pruning decisions.
        ``read_epoch`` stamps each row with the router epoch observed at
        *its own* read, so a display consumer can label rows that went
        stale mid-scan (e.g. a rebalance re-cutting the layout while the
        table was being assembled) instead of silently mixing layouts."""
        c = int(c)
        stats = []
        for s in range(self.n_shards):
            read_epoch = self._epoch
            sketch = self._sketches[s].get(c)
            stats.append(
                (
                    self._window_epochs[s].get(c, 0),
                    sketch.n_rows if sketch is not None else 0,
                    read_epoch,
                )
            )
        return stats

    def snapshot_window_sketch(self, s: int, c: int):
        """Coherent ``(stamp, slice, gids, sketch)`` quadruple.

        Like :meth:`snapshot_window` with the window's zone map read in
        the same locked section, so the sketch describes exactly the
        pinned rows — a pruning decision made from the sketch can never
        disagree with the slice the scan would read.
        """
        with self._lock:
            batch, gids = self._window_slice(s, c)
            c = int(c)
            return (
                self._window_epochs[s].get(c, 0),
                batch,
                gids,
                self._sketches[s].get(c, WindowSketch.EMPTY),
            )

    def head(self) -> Tuple[int, int, int]:
        """``(epoch, global rows, layout epoch)`` of the last committed
        ingest or re-cut, read together under the lock — the point a
        snapshot binding pins."""
        with self._lock:
            return self._epoch, self._global_rows, self._layout_epoch

    def windows_for_times(self, ts) -> np.ndarray:
        """Global window index responsible for each query timestamp.

        Identical to :func:`repro.data.windows.windows_for_times` over the
        merged global stream, from resident metadata only: the first
        tuple of window ``c`` is global row ``c*h``, so for a time-sorted
        stream ``first_t[c] <= t`` iff more than ``c*h`` tuples are at or
        before ``t`` — the responsible window ``(rank(t) - 1) // h`` is
        the last one whose first tuple is at or before ``t``.  One binary
        search over the first-times table; no window rows touched.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if not self._global_rows:
            raise RuntimeError("router has no data")
        # Only the *registered* windows, counted before the table is
        # read: ingest records a window's first time (growing the table
        # by replacing it) before the row counter advances past it, so
        # an unlocked reader always finds the counted prefix filled in.
        n_windows = self.global_window_count()
        first = self._first_ts[:n_windows]
        return np.maximum(first.searchsorted(ts, side="right") - 1, 0)

    def window_for_time(self, t: float) -> int:
        """:meth:`windows_for_times` for one timestamp: a scalar binary
        search over the same table, read in the same order (windows
        counted first) — no array is built."""
        if not self._global_rows:
            raise RuntimeError("router has no data")
        n_windows = self.global_window_count()
        return max(bisect_right(self._first_ts, t, 0, n_windows) - 1, 0)

    def cuts(self, s: int) -> List[int]:
        """Copy of shard ``s``'s recorded global-boundary cut offsets."""
        return list(self._cuts[s])

    # -- adaptive layout: split / merge re-cuts ----------------------------
    #
    # A re-cut is an epoch-bumped transaction under the router lock:
    # the affected shard's rows are re-routed into the new layout's
    # slots, every slot's cut offsets are recomputed from its gids
    # (cut[c] = #gids < c*h, the same definition ingest records
    # incrementally), per-(slot, window) sketches are rebuilt exactly,
    # and every touched window is re-stamped at a fresh content epoch so
    # no processor-cache entry built on the old layout can ever be
    # served again (stamp-equality serving + monotone stamps).  The old
    # layout's per-shard state lists and its store are never mutated in
    # place — the new ones are built aside and published with single
    # reference assignments — so a reader pinned on the old layout (a
    # binding's memoised slices, an unlocked window_stats iteration)
    # keeps a coherent view of the retired layout forever.

    def _refined_grid(self) -> RefinedRegionGrid:
        grid = self.grid
        if isinstance(grid, RefinedRegionGrid):
            return grid
        return RefinedRegionGrid.refine(grid)

    def _install_layout(self, new_grid: RefinedRegionGrid, rebuilt, cleared) -> None:
        """Publish a re-cut: ``rebuilt`` maps slot -> (batch, gids) in
        gid order; ``cleared`` slots become empty holes.  Caller holds
        the lock."""
        n_old = self.n_shards
        n_new = new_grid.n_regions
        m = len(self._cuts[0])
        self._epoch += 1
        self._layout_epoch += 1
        epoch = self._epoch
        touched = set(cleared) | set(rebuilt) | set(range(n_old, n_new))
        store = self._store.recut(n_new, rebuilt, touched)
        cuts = list(self._cuts)
        shard_rows = list(self._shard_rows)
        wepochs = list(self._window_epochs)
        sketches = list(self._sketches)
        for lists in (cuts, shard_rows, wepochs, sketches):
            lists.extend([None] * (n_new - n_old))
        for slot in touched:
            cuts[slot] = [0] * m
            shard_rows[slot] = 0
            wepochs[slot] = {}
            sketches[slot] = {}
        boundaries = np.arange(m, dtype=np.int64) * self.h
        for slot, (batch, gids) in rebuilt.items():
            shard_rows[slot] = len(batch)
            cuts[slot] = [int(v) for v in np.searchsorted(gids, boundaries)]
            wins = gids // self.h
            for c in np.unique(wins):
                c = int(c)
                in_c = wins == c
                wepochs[slot][c] = epoch
                sketches[slot][c] = WindowSketch.EMPTY.extended(
                    batch.t[in_c], batch.x[in_c], batch.y[in_c], batch.s[in_c]
                )
        self._store = store
        self._cuts = cuts
        self._shard_rows = shard_rows
        self._window_epochs = wepochs
        self._sketches = sketches
        # The grid goes last: a lock-free reader that finds the grid it
        # started with still live read its stamp from that grid's tables
        # or from ones nobody has cached at yet (the lock is still held).
        self.grid = new_grid
        self.load.resize(n_new)
        for slot in touched:
            self.load.reset_shard(slot)

    def split_shard(self, s: int, sx: int = 2, sy: int = 2) -> List[int]:
        """Split shard ``s``'s grid cell into ``sx x sy`` sub-tiles.

        Returns the new layout's slot ids for the cell (the first one is
        ``s`` itself — unaffected shards never renumber).  The global
        row multiset, gids, and window alignment are unchanged, so
        answers stay byte-identical at the new layout; only the
        partitioning of the hot cell's rows across slots moves.  A store
        whose layout is durable refuses (``NotImplementedError``) when
        asked for the column to re-cut, before anything changes.
        """
        with self._lock:
            grid = self._refined_grid()
            cell = grid.cell_of_shard(s)
            new_grid = grid.split_cell(cell, sx, sy)
            new_ids = list(new_grid.cell_shards[cell])
            batch, gids = self._store.column(s)
            owners = new_grid.shards_of(batch.x, batch.y)
            if len(batch) and not np.isin(owners, new_ids).all():
                raise RuntimeError(
                    f"split of shard {s} re-routed rows outside cell {cell}"
                )
            rebuilt = {}
            for t in new_ids:
                member = owners == t
                rebuilt[t] = (batch.select_mask(member), gids[member])
            parent_load = self.load.loads()[s]
            self._install_layout(new_grid, rebuilt, cleared=())
            # Carry the parent's EWMA load over, split by row share, so
            # the rebalancer sees the (still-hot) cell as hot rather
            # than freshly cold — without this a split would immediately
            # qualify for re-merge.
            total = max(len(batch), 1)
            for t in new_ids:
                self.load.seed_load(t, parent_load * len(rebuilt[t][1]) / total)
            return new_ids

    def merge_cell(self, cell: int) -> int:
        """Re-merge a split cell's sub-tiles into one shard (the lowest
        tile id); the other tile ids become empty hole slots.  Returns
        the surviving shard id.  Refused like :meth:`split_shard` over a
        store whose layout is durable."""
        with self._lock:
            grid = self._refined_grid()
            old_ids = list(grid.cell_shards[cell])
            parts = [self._store.column(t) for t in old_ids]
            new_grid = grid.merge_cell(cell)
            keep = new_grid.cell_shards[cell][0]
            gids = np.concatenate([g for _, g in parts])
            order = np.argsort(gids)
            merged = TupleBatch(
                np.concatenate([b.t for b, _ in parts])[order],
                np.concatenate([b.x for b, _ in parts])[order],
                np.concatenate([b.y for b, _ in parts])[order],
                np.concatenate([b.s for b, _ in parts])[order],
            )
            loads = self.load.loads()
            tile_load = sum(loads[t] for t in old_ids if t < len(loads))
            self._install_layout(
                new_grid,
                {keep: (merged, gids[order])},
                cleared=[t for t in old_ids if t != keep],
            )
            # The survivor inherits the tiles' combined recent load.
            self.load.seed_load(keep, tile_load)
            return keep


def single_shard_router(
    h: int = 240, bounds: Optional[BoundingBox] = None
) -> ShardRouter:
    """A 1-shard router — the degenerate configuration every multi-shard
    answer must be byte-identical to.  ``bounds`` defaults to a unit box;
    with one cell, ownership is total regardless of the box."""
    box = bounds or BoundingBox(0.0, 0.0, 1.0, 1.0)
    return ShardRouter(RegionGrid(box, nx=1, ny=1), h=h)
