"""The embedded database: a named collection of tables plus the two
EnviroMeter-specific accessors (``raw_tuples`` and ``model_cover``).

The server (:mod:`repro.server`) owns one :class:`Database`; the query
processors read tuple windows out of it and the cover builder writes
serialized covers back into it, mirroring Figure 1 of the paper.

The ``raw_tuples`` table is *window-partitioned*: with a ``partition_h``
configured, the stream is split into count-based windows ``W_c`` of
``partition_h`` tuples.  Windows behind the write head are *sealed* —
append-only storage guarantees their rows can never change — and the
database caches one immutable zero-copy :class:`TupleBatch` view per
sealed window, so repeated window reads cost a dict lookup rather than a
re-slice (and never a copy).  ``model_cover`` writes maintain a
per-window latest-cover index, making :meth:`cover_blob_for_window` an
O(1) point lookup instead of a full column scan.

Concurrency: writers (``ingest_tuples``, cover stores) serialise on the
database lock; readers take an **epoch-stamped snapshot**
(:meth:`Database.snapshot`) — an immutable pinned prefix of the stream
plus the epochs identifying each window's content — and then work
entirely off the snapshot, so queries never see torn appends and two
reads of the same snapshot always agree.  The epoch advances once per
non-empty ingest; a window's *content epoch* (:meth:`window_epoch`) is
the epoch of the last ingest that landed tuples in it, which is what the
serving layer's caches key on: sealed windows can never gain tuples, so
their stamps are frozen forever, while the open tail window's stamp
advances with every batch that touches it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.data.tuples import TupleBatch
from repro.data.windows import (
    WindowSlices,
    sealed_window_count,
    touched_windows,
    window,
    windows_for_times,
)
from repro.storage.schema import MODEL_COVER_SCHEMA, RAW_TUPLES_SCHEMA, Schema
from repro.storage.table import Table


@dataclass(frozen=True)
class StorageSnapshot:
    """An immutable, epoch-stamped view of a database's tuple stream.

    ``batch`` is a zero-copy prefix of the stream pinned at capture time
    (appends land past it, so its contents never change); ``epoch`` is
    the database epoch at capture.  :meth:`window_epoch` returns the
    content stamp of any window *as of this snapshot*: for windows sealed
    inside the snapshot the live per-window epochs are frozen and shared,
    while the open tail window's stamp was recorded at capture so later
    ingest cannot leak into it.
    """

    batch: TupleBatch
    epoch: int
    h: Optional[int]
    _window_epochs: Mapping[int, int] = field(default_factory=dict, repr=False)
    _tail_c: int = -1
    _tail_epoch: int = 0

    def __len__(self) -> int:
        return len(self.batch)

    def window_epoch(self, c: int) -> int:
        """Content stamp of window ``c`` at this snapshot (0 = no data).

        Two snapshots reporting the same stamp for ``c`` hold exactly the
        same window-``c`` tuples, so any processor or cover built for one
        is byte-for-byte valid for the other.
        """
        if self.h is None:
            return self.epoch
        if c == self._tail_c:
            return self._tail_epoch
        if 0 <= c < len(self.batch) // self.h:
            return self._window_epochs.get(c, 0)
        return 0

    def window(self, c: int) -> TupleBatch:
        """Window ``W_c``'s tuples as of this snapshot (zero-copy)."""
        if self.h is None:
            raise RuntimeError("snapshot has no window partitioning")
        return window(self.batch, c, self.h)

    def windows_for_times(self, ts) -> np.ndarray:
        """Window index per query timestamp, against the pinned stream."""
        if self.h is None:
            raise RuntimeError("snapshot has no window partitioning")
        if not len(self.batch):
            raise RuntimeError("snapshot holds no data")
        return windows_for_times(self.batch.t, ts, self.h)


class Database:
    """An embedded database instance.

    ``partition_h`` is the count-based window size used to partition the
    ``raw_tuples`` table (``None`` for databases that don't store a tuple
    stream).
    """

    def __init__(self, partition_h: Optional[int] = None) -> None:
        if partition_h is not None and partition_h <= 0:
            raise ValueError("partition_h must be positive")
        self._tables: Dict[str, Table] = {}
        self._partition_h = partition_h
        # window_c -> row id of the *newest* cover stored for that window.
        self._cover_index: Dict[int, int] = {}
        # window c -> cached immutable zero-copy view of the sealed window.
        self._sealed_windows: Dict[int, TupleBatch] = {}
        self._raw_cache: Optional[TupleBatch] = None
        self._last_touched: range = range(0)
        # Writer serialisation + snapshot-cache guard.  Reentrant so the
        # ingest path can refresh caches while holding it.
        self._lock = threading.RLock()
        self._epoch = 0
        # window c -> epoch of the last ingest that landed tuples in it.
        self._window_epochs: Dict[int, int] = {}

    # -- generic table management -------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> tuple:
        return tuple(sorted(self._tables))

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise KeyError(f"no table named {name!r}")
        del self._tables[name]
        if name == "model_cover":
            self._cover_index.clear()
        elif name == "raw_tuples":
            self._sealed_windows.clear()
            self._raw_cache = None
            self._last_touched = range(0)

    # -- EnviroMeter-specific schema ------------------------------------------

    @classmethod
    def for_enviro_meter(cls, partition_h: int = 240) -> "Database":
        """Database pre-created with the Figure 1 tables, with the raw
        tuple stream partitioned into windows of ``partition_h`` tuples."""
        db = cls(partition_h=partition_h)
        db.create_table("raw_tuples", RAW_TUPLES_SCHEMA)
        db.create_table("model_cover", MODEL_COVER_SCHEMA)
        return db

    @property
    def partition_h(self) -> Optional[int]:
        return self._partition_h

    def ingest_tuples(self, batch: TupleBatch) -> int:
        """Append a batch of raw measurements to ``raw_tuples``.

        One vectorized fill per column; sealed-window views stay valid
        (appends land past them), only the full-stream snapshot refreshes.
        A cover stored for a window that was still *open* is dropped from
        the latest-cover index when the window gains tuples — it was
        fitted on partial data and must be refit on next demand.  Sealed
        windows can't gain tuples, so their covers are never touched.
        """
        with self._lock:
            table = self.table("raw_tuples")
            start = len(table)
            n = table.insert_columns(t=batch.t, x=batch.x, y=batch.y, s=batch.s)
            if n:
                self._epoch += 1
            if n and self._partition_h is not None:
                self._last_touched = touched_windows(start, n, self._partition_h)
                for c in self._last_touched:
                    self._cover_index.pop(c, None)
                    self._window_epochs[c] = self._epoch
            else:
                self._last_touched = range(0)
        return n

    @property
    def last_touched_windows(self) -> range:
        """Windows touched by the most recent :meth:`ingest_tuples` call —
        the single source the server uses to invalidate its cover caches
        (empty for unpartitioned databases)."""
        return self._last_touched

    @property
    def epoch(self) -> int:
        """Monotone ingest epoch: +1 per non-empty :meth:`ingest_tuples`."""
        return self._epoch

    def window_epoch(self, c: int) -> int:
        """Epoch of the last ingest that landed tuples in window ``c``
        (0 if the window has never received data).  Frozen forever once
        the window seals — appends only ever land past sealed windows."""
        return self._window_epochs.get(int(c), 0)

    def snapshot(self) -> StorageSnapshot:
        """An immutable epoch-stamped snapshot of the tuple stream.

        Captured under the database lock, so the pinned prefix, the epoch
        and the tail window's content stamp are mutually consistent; all
        subsequent reads through the snapshot are lock-free.
        """
        with self._lock:
            batch = self.raw_tuples()
            n = len(batch)
            tail_c = -1
            tail_epoch = 0
            if self._partition_h is not None and n:
                tail_c = (n - 1) // self._partition_h
                tail_epoch = self._window_epochs.get(tail_c, 0)
            return StorageSnapshot(
                batch=batch,
                epoch=self._epoch,
                h=self._partition_h,
                _window_epochs=self._window_epochs,
                _tail_c=tail_c,
                _tail_epoch=tail_epoch,
            )

    def raw_count(self) -> int:
        """Number of raw tuples stored."""
        return len(self.table("raw_tuples"))

    def raw_tuples(self) -> TupleBatch:
        """Snapshot of all stored raw tuples as a columnar batch.

        Zero-copy: the batch wraps read-only views of the live column
        buffers, so the cost is O(1) regardless of history length.  Safe
        under concurrent ingest: the cache refresh runs under the
        database lock, and a stale hit is still a valid (slightly older)
        snapshot."""
        table = self.table("raw_tuples")
        cached = self._raw_cache
        if cached is not None and len(cached) == len(table):
            return cached
        with self._lock:
            cached = self._raw_cache
            if cached is not None and len(cached) == len(table):
                return cached
            cols = table.scan()
            fresh = TupleBatch(cols["t"], cols["x"], cols["y"], cols["s"])
            if self._sealed_windows and (
                cached is None
                or (
                    len(cached)
                    and len(fresh)
                    and not np.shares_memory(fresh.t, cached.t)
                )
            ):
                # A growth reallocation superseded the column buffers:
                # drop every cached view stranded on an old generation so
                # the store doesn't pin it (they re-slice lazily, with
                # identical contents, on next access).
                self._sealed_windows = {
                    c: v
                    for c, v in self._sealed_windows.items()
                    if np.shares_memory(v.t, fresh.t)
                }
            self._raw_cache = fresh
            return fresh

    # -- window partitioning --------------------------------------------------

    def _require_partition(self) -> int:
        if self._partition_h is None:
            raise RuntimeError("database has no window partitioning configured")
        return self._partition_h

    def sealed_window_ids(self) -> range:
        """Indices of the sealed (full, immutable) raw-tuple windows."""
        return range(sealed_window_count(self.raw_count(), self._require_partition()))

    def is_sealed(self, c: int) -> bool:
        return c in self.sealed_window_ids()

    def window_view(self, c: int) -> TupleBatch:
        """Zero-copy view of raw-tuple window ``W_c``.

        Sealed windows are cached: repeated calls return the *same*
        immutable :class:`TupleBatch` object, until a column-buffer
        growth reallocation supersedes the view's backing storage — then
        a fresh (content-identical) view of the live buffer replaces it,
        so the cache never pins old buffer generations.  The open tail
        window is re-sliced per call since it is still growing."""
        h = self._require_partition()
        batch = self.raw_tuples()
        cached = self._sealed_windows.get(c)
        if cached is not None and np.shares_memory(cached.t, batch.t):
            return cached
        view = window(batch, c, h)
        if len(view) == h:  # full -> sealed: no append can ever change it
            with self._lock:  # raw_tuples may be pruning the dict
                self._sealed_windows[c] = view
        return view

    def window_views(self) -> WindowSlices:
        """All current windows as a zero-copy sequence view."""
        return WindowSlices(self.raw_tuples(), self._require_partition())

    # -- model covers ---------------------------------------------------------

    def store_cover_blob(self, window_c: int, valid_until: float, blob: bytes) -> int:
        """Persist one window's serialized model cover."""
        with self._lock:
            rid = self.table("model_cover").insert((window_c, valid_until, blob))
            self._cover_index[int(window_c)] = rid
        return rid

    def latest_cover_blob(self) -> Optional[tuple]:
        """Most recently stored *still-valid* ``(window_c, valid_until,
        blob)`` or None.  Reads through the cover index, so covers whose
        windows grew after they were fitted are not served."""
        with self._lock:  # the index may be resized by a concurrent store
            if not self._cover_index:
                return None
            rid = max(self._cover_index.values())
        window_c, valid_until, blob = self.table("model_cover").row(rid)
        return int(window_c), float(valid_until), blob

    def cover_blob_for_window(self, window_c: int) -> Optional[tuple]:
        """Latest stored cover for a specific window, or None.

        O(1): a point lookup through the per-window latest-cover index."""
        rid = self._cover_index.get(int(window_c))
        if rid is None:
            return None
        stored_c, valid_until, blob = self.table("model_cover").row(rid)
        return int(stored_c), float(valid_until), blob
