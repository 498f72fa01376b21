"""Append-only columnar tables.

Numeric columns live in one amortised-doubling numpy buffer per column;
byte columns in Python lists.  Appends are O(1) amortised, bulk appends
are single vectorized slice fills, and reads return immutable *views* of
the filled prefix — a snapshot is O(1) and never copies, and a
long-running query never sees a half-appended row because writes only
ever touch positions past the snapshot's length.

Failed writes are atomic: ``insert`` and ``insert_columns`` validate the
whole row / column set up front, so a rejected write leaves every column
untouched (see ``README.md`` in this package).

Concurrency contract (the serving layer's reader-writer isolation rides
on it):

* writers serialise on the table's write lock — one appender at a time;
* readers never lock.  Every write commits in an order that keeps any
  interleaved read torn-free: buffer reallocation installs a fully
  prefix-copied buffer before the swap, new values land past the filled
  length, and the length advances last (``_row_count`` after every
  column).  A reader that loads the length *before* the buffer therefore
  always sees a fully-written prefix, whichever side of an in-flight
  append it lands on.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.schema import ColumnType, Schema

#: Initial capacity of a numeric column.  Small, because a segment
#: store starts a fresh open-tail column per shard at every seal.
_CHUNK = 256


class _NumericColumn:
    """Growable float64/int64 column backed by one doubling buffer.

    The buffer is only ever written at positions ``>= len(self)``, so the
    read-only prefix views handed out by :meth:`snapshot` stay stable as
    the column grows; a reallocation on growth leaves earlier snapshots
    pointing at the old buffer.
    """

    __slots__ = ("dtype", "_buf", "_len", "_view")

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = dtype
        self._buf = np.empty(_CHUNK, dtype=dtype)
        self._len = 0
        self._view: Optional[np.ndarray] = None

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        cap = len(self._buf)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        buf = np.empty(cap, dtype=self.dtype)
        buf[: self._len] = self._buf[: self._len]
        self._buf = buf
        self._view = None

    def prepare(self, value: Any) -> Any:
        """Validate/convert one value without mutating the column."""
        return self.dtype.type(value)

    def append_prepared(self, value: Any) -> None:
        self._reserve(1)
        self._buf[self._len] = value
        self._len += 1
        self._view = None

    def append(self, value: float) -> None:
        self.append_prepared(self.prepare(value))

    def prepare_bulk(self, values: Any) -> np.ndarray:
        """Validate/convert an array for :meth:`extend` without mutating."""
        arr = np.asarray(values, dtype=self.dtype)
        if arr.ndim != 1:
            raise ValueError(f"column data must be one-dimensional, got {arr.ndim}-d")
        return arr

    def extend(self, values: np.ndarray) -> None:
        """Vectorized bulk append: one slice assignment, no Python loop."""
        arr = self.prepare_bulk(values)
        k = len(arr)
        if not k:
            return
        self._reserve(k)
        self._buf[self._len : self._len + k] = arr
        self._len += k
        self._view = None

    def __len__(self) -> int:
        return self._len

    def get(self, i: int) -> Any:
        """One value by position — O(1), no snapshot materialisation."""
        return self._buf[i]

    def snapshot(self) -> np.ndarray:
        """Immutable zero-copy view of the whole column (cached).

        Safe to call concurrently with an appender: the filled length is
        loaded *before* the buffer, so whichever buffer generation the
        read lands on contains a fully-written prefix of that length.
        The cache is validated by length and buffer identity rather than
        cleared-flag state, so a racing reader re-caching a stale view
        only costs the next caller a rebuild, never a torn read.
        """
        n = self._len
        view = self._view
        if view is None or view.shape[0] != n or view.base is not self._buf:
            view = self._buf[:n]
            view.flags.writeable = False
            self._view = view
        return view


class _BytesColumn:
    """Growable column of ``bytes`` values."""

    __slots__ = ("_values", "_snap")

    def __init__(self) -> None:
        self._values: List[bytes] = []
        self._snap: Optional[Tuple[bytes, ...]] = None

    def prepare(self, value: Any) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"expected bytes, got {type(value).__name__}")
        return bytes(value)

    def append_prepared(self, value: bytes) -> None:
        self._values.append(value)
        self._snap = None

    def append(self, value: bytes) -> None:
        self.append_prepared(self.prepare(value))

    def __len__(self) -> int:
        return len(self._values)

    def get(self, i: int) -> bytes:
        return self._values[i]

    def snapshot(self) -> Tuple[bytes, ...]:
        snap = self._snap
        if snap is None or len(snap) != len(self._values):
            snap = tuple(self._values)
            self._snap = snap
        return snap


_DTYPES = {
    ColumnType.FLOAT64: np.dtype(np.float64),
    ColumnType.INT64: np.dtype(np.int64),
}


class Table:
    """One append-only table with a fixed :class:`Schema`.

    Writes serialise on an internal lock; reads are lock-free and
    consistent — ``scan``/``column`` clamp every column snapshot to the
    committed row count (loaded first), so a scan taken mid-append never
    mixes columns of different lengths.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        if not name or not name.isidentifier():
            raise ValueError(f"invalid table name: {name!r}")
        self.name = name
        self.schema = schema
        self._columns: Dict[str, Any] = {}
        for col in schema.columns:
            if col.ctype is ColumnType.BYTES:
                self._columns[col.name] = _BytesColumn()
            else:
                self._columns[col.name] = _NumericColumn(_DTYPES[col.ctype])
        self._row_count = 0
        self._lock = threading.RLock()

    # -- writes -------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> int:
        """Append one row (values in schema order); returns its row id.

        The whole row is validated before any column is touched, so a
        rejected row leaves the table unchanged.
        """
        if len(row) != len(self.schema):
            raise ValueError(
                f"{self.name}: row has {len(row)} values, schema has {len(self.schema)}"
            )
        with self._lock:
            prepared = [
                self._columns[col.name].prepare(value)
                for col, value in zip(self.schema.columns, row)
            ]
            for col, value in zip(self.schema.columns, prepared):
                self._columns[col.name].append_prepared(value)
            rid = self._row_count
            self._row_count += 1
        return rid

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many rows; returns the number inserted."""
        n = 0
        for row in rows:
            self.insert(row)
            n += 1
        return n

    def insert_columns(self, **columns: np.ndarray) -> int:
        """Bulk-append numeric column data given as keyword arrays.

        All schema columns must be provided and be the same length.  Only
        valid for tables without BYTES columns.  Validation (schema match,
        column types, dtype conversion, lengths) happens before any column
        is extended, so a failed bulk insert leaves the table unchanged.
        """
        if set(columns) != set(self.schema.names):
            raise ValueError(
                f"{self.name}: expected columns {self.schema.names}, got {tuple(columns)}"
            )
        if self.schema.has_bytes:
            bad = next(c.name for c in self.schema.columns if c.ctype is ColumnType.BYTES)
            raise TypeError(f"{self.name}.{bad}: bulk insert not supported for BYTES")
        with self._lock:
            arrays = {
                col.name: self._columns[col.name].prepare_bulk(columns[col.name])
                for col in self.schema.columns
            }
            lengths = {len(a) for a in arrays.values()}
            if len(lengths) != 1:
                raise ValueError(f"{self.name}: column arrays have differing lengths")
            for col in self.schema.columns:
                self._columns[col.name].extend(arrays[col.name])
            (n,) = lengths
            self._row_count += n
        return n

    # -- reads --------------------------------------------------------------

    def __len__(self) -> int:
        return self._row_count

    def column(self, name: str) -> Any:
        """Immutable snapshot of one column (ndarray view or tuple of bytes).

        Clamped to the committed row count, which is loaded *before* the
        column snapshot: a concurrent appender bumps the count only after
        every column holds the new rows, so the clamp always selects
        fully-written data.
        """
        self.schema.column(name)  # raises KeyError for unknown names
        n = self._row_count
        snap = self._columns[name].snapshot()
        return snap if len(snap) == n else snap[:n]

    def scan(self) -> Dict[str, Any]:
        """Snapshot of all columns, keyed by name.  O(#columns): numeric
        snapshots are zero-copy views, never a concatenation of history.
        All columns are clamped to one committed row count (loaded before
        any snapshot), so a scan taken while a writer is mid-append never
        mixes columns of different lengths."""
        n = self._row_count
        out: Dict[str, Any] = {}
        for name in self.schema.names:
            snap = self._columns[name].snapshot()
            out[name] = snap if len(snap) == n else snap[:n]
        return out

    def row(self, rid: int) -> Tuple[Any, ...]:
        """One row by id — O(#columns) point reads, no snapshots."""
        if not 0 <= rid < self._row_count:
            raise IndexError(f"{self.name}: row id {rid} out of range")
        return tuple(self._columns[name].get(rid) for name in self.schema.names)
