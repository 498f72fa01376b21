"""Tuple windows ``W_c``.

The paper computes each model cover from a window of raw tuples
``W_c = <b_i | cH <= t_i <= (c+1)H>`` where ``H`` is the window length
(Section 2.1).  The evaluation (Section 4.1) then *counts* the window in
raw tuples ("window size H from 40 to 240 raw tuples (4 hour window)") —
240 tuples at 60 s sampling from a single stream is 4 hours.  Both views
are supported:

* :func:`window` / :func:`iter_windows` — count-based windows over a
  time-sorted batch, matching the evaluation's H-in-tuples convention;
* :class:`WindowSpec` — time-based windows matching the formal definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.data.tuples import TupleBatch


def window(batch: TupleBatch, c: int, h: int) -> TupleBatch:
    """The ``c``-th count-based window of ``h`` tuples (zero-copy slice).

    The final window may be shorter than ``h``.  Raises ``IndexError`` when
    ``c`` is past the end of the batch.
    """
    if h <= 0:
        raise ValueError("window size h must be positive")
    if c < 0:
        raise ValueError("window index c must be non-negative")
    start = c * h
    if start >= len(batch):
        raise IndexError(f"window {c} (h={h}) starts past the end of the batch")
    return batch.slice(start, min(start + h, len(batch)))


def count_windows(batch: TupleBatch, h: int) -> int:
    """Number of count-based windows of size ``h`` covering ``batch``."""
    if h <= 0:
        raise ValueError("window size h must be positive")
    return (len(batch) + h - 1) // h


def sealed_window_count(n_rows: int, h: int) -> int:
    """Number of *sealed* count-windows in an ``n_rows`` stream.

    A count-window is sealed once it holds its full ``h`` tuples: appends
    only ever land in later rows, so its contents can never change again.
    """
    if h <= 0:
        raise ValueError("window size h must be positive")
    if n_rows < 0:
        raise ValueError("row count must be non-negative")
    return n_rows // h


def windows_for_times(sorted_t: np.ndarray, ts, h: int) -> np.ndarray:
    """Count-window index responsible for each query timestamp.

    A query at time ``t`` is answered from the window holding the latest
    tuple not after ``t`` (the lazy-update policy), or window 0 when
    ``t`` predates the stream.  One vectorized binary search; the single
    shared implementation behind the server's and the query engine's
    window assignment.
    """
    if h <= 0:
        raise ValueError("window size h must be positive")
    pos = np.searchsorted(sorted_t, np.asarray(ts, dtype=np.float64), side="right")
    return np.maximum(pos - 1, 0) // h


def touched_windows(start_row: int, n_rows: int, h: int) -> range:
    """Count-window indices covered by appended rows ``[start_row,
    start_row + n_rows)`` — the windows an ingest batch can invalidate."""
    if h <= 0:
        raise ValueError("window size h must be positive")
    if start_row < 0:
        raise ValueError("start row must be non-negative")
    if n_rows <= 0:
        return range(0)
    return range(start_row // h, (start_row + n_rows - 1) // h + 1)


def window_boundaries_in(start_row: int, n_rows: int, h: int) -> range:
    """Global row positions of count-window boundaries crossed by an
    append of ``n_rows`` rows at ``start_row`` — the multiples of ``h`` in
    ``(start_row, start_row + n_rows]``.

    These are the points where a shard router must record per-shard cut
    offsets: every boundary ``b`` separates window ``b // h - 1`` from
    window ``b // h`` in the *global* stream order.
    """
    if h <= 0:
        raise ValueError("window size h must be positive")
    if start_row < 0:
        raise ValueError("start row must be non-negative")
    if n_rows < 0:
        raise ValueError("row count must be non-negative")
    first = (start_row // h + 1) * h
    return range(first, start_row + n_rows + 1, h)


def iter_windows(batch: TupleBatch, h: int) -> Iterator[Tuple[int, TupleBatch]]:
    """Yield ``(c, W_c)`` for every count-based window of ``batch``."""
    for c in range(count_windows(batch, h)):
        yield c, window(batch, c, h)


@dataclass(frozen=True)
class WindowSpec:
    """Time-based windowing ``W_c = <b_i | cH <= t_i < (c+1)H>``.

    ``horizon_s`` is the window length H in seconds.  The window's validity
    deadline ``t_n = (c+1)H`` is what the server ships to model-cache
    clients (Section 2.3).
    """

    horizon_s: float

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError("window horizon must be positive")

    def window_index(self, t: float) -> int:
        """Index ``c`` of the window containing time ``t``."""
        if t < 0:
            raise ValueError("time must be non-negative")
        return int(t // self.horizon_s)

    def bounds(self, c: int) -> Tuple[float, float]:
        """Half-open time bounds ``[cH, (c+1)H)`` of window ``c``."""
        if c < 0:
            raise ValueError("window index must be non-negative")
        return c * self.horizon_s, (c + 1) * self.horizon_s

    def valid_until(self, c: int) -> float:
        """The validity deadline ``t_n`` of window ``c``'s model cover."""
        return self.bounds(c)[1]

    def select(self, batch: TupleBatch, c: int) -> TupleBatch:
        """Tuples of ``batch`` falling in window ``c``.

        Uses a binary search when the batch is time-sorted (the common
        case for append-only sensor streams) and a mask otherwise.
        """
        lo, hi = self.bounds(c)
        if batch.is_time_sorted():
            start = int(np.searchsorted(batch.t, lo, side="left"))
            stop = int(np.searchsorted(batch.t, hi, side="left"))
            return batch.slice(start, stop)
        mask = (batch.t >= lo) & (batch.t < hi)
        return batch.select_mask(mask)

    def iter_nonempty(self, batch: TupleBatch) -> Iterator[Tuple[int, TupleBatch]]:
        """Yield ``(c, W_c)`` for every non-empty window of ``batch``."""
        if not len(batch):
            return
        t_min, t_max = float(np.min(batch.t)), float(np.max(batch.t))
        for c in range(self.window_index(t_min), self.window_index(t_max) + 1):
            w = self.select(batch, c)
            if len(w):
                yield c, w
