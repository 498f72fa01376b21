"""The naive method (Section 2.2).

"The server does an exhaustive search in the window W_c to find all the
raw tuples that are in a radius r centered at (x_l, y_l).  Then the
interpolated value ŝ_l is computed as the average value of the sensor
values s_i found in the radius r."

The scan is a per-tuple Python loop on purpose: this reproduces the cost
profile of the paper's Python implementation (Section 4.1: "the naive and
the model cover methods are implemented using Python"), which is what the
efficiency figure compares against.
"""

from __future__ import annotations

import numpy as np

from repro.data.tuples import QueryTuple, TupleBatch
from repro.query.base import BatchResult, QueryBatch, QueryResult

# Cap on the cells (queries x window tuples) of one vectorised chunk.
# The distance expression below materialises five float64 temporaries of
# that shape — 64 MiB *each* at the cap, far outside any cache — so the
# cap only bounds peak memory for huge query batches; it amortises numpy
# dispatch, it does not keep the loop cache-resident.
_MAX_CHUNK_CELLS = 8_000_000


class NaiveProcessor:
    """Exhaustive radius search over one window of raw tuples."""

    name = "naive"

    def __init__(self, window: TupleBatch, radius_m: float = 1000.0) -> None:
        if radius_m < 0:
            raise ValueError("radius must be non-negative")
        self._window = window
        self._radius = radius_m
        # Materialise plain Python lists once; scanning numpy arrays
        # element-wise would pay boxing costs per access instead.
        self._xs = window.x.tolist()
        self._ys = window.y.tolist()
        self._ss = window.s.tolist()

    @property
    def radius_m(self) -> float:
        return self._radius

    @property
    def window(self) -> TupleBatch:
        return self._window

    def process(self, query: QueryTuple) -> QueryResult:
        r2 = self._radius * self._radius
        qx, qy = query.x, query.y
        total = 0.0
        count = 0
        xs, ys, ss = self._xs, self._ys, self._ss
        for i in range(len(xs)):
            dx = xs[i] - qx
            dy = ys[i] - qy
            if dx * dx + dy * dy <= r2:
                total += ss[i]
                count += 1
        if not count:
            return QueryResult(query=query, value=None, support=0)
        return QueryResult(query=query, value=total / count, support=count)

    def process_batch(self, queries: QueryBatch) -> BatchResult:
        """Vectorised exhaustive search: one distance matrix per chunk.

        Same semantics as :meth:`process` (boundary tuples at distance
        exactly ``r`` included; zero hits -> unanswered), but the radius
        test for a chunk of queries against the whole window is a single
        ``(m, n)`` numpy expression instead of ``m * n`` interpreted
        iterations.  Chunking bounds peak memory for huge query batches.
        """
        m = len(queries)
        n = len(self._window)
        values = np.full(m, np.nan)
        support = np.zeros(m, dtype=np.int64)
        if m == 0 or n == 0:
            return BatchResult(queries, values, support, answered=support > 0)
        wx, wy, ws = self._window.x, self._window.y, self._window.s
        r2 = self._radius * self._radius
        chunk = max(1, _MAX_CHUNK_CELLS // n)
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            qx = queries.x[start:stop, None]
            qy = queries.y[start:stop, None]
            inside = (wx[None, :] - qx) ** 2 + (wy[None, :] - qy) ** 2 <= r2
            counts = inside.sum(axis=1)
            totals = inside @ ws
            hit = counts > 0
            support[start:stop] = counts
            values[start:stop][hit] = totals[hit] / counts[hit]
        # Explicit mask: a NaN sensor value averages to NaN but the query
        # *was* answered, exactly as the scalar path reports it.
        return BatchResult(queries, values, support, answered=support > 0)
