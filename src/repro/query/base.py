"""Common types for query processors: scalar and batched execution.

Two execution paths share these types (see ``repro/query/README.md``):

* the **scalar path** — ``process(QueryTuple) -> QueryResult``, one Python
  call per query, reproducing the paper's per-tuple cost profile;
* the **batched path** — ``process_batch(QueryBatch) -> BatchResult``,
  answering many queries in one call so processors can vectorise with
  NumPy.  Every processor in this package implements it; for third-party
  processors that only implement ``process``, :func:`process_batch`
  dispatches to the scalar fallback, so the batched engine APIs work
  against any :class:`PointQueryProcessor`.

The two paths are semantically equivalent — same values (up to float
summation order), same ``answered`` flags, same support counts — which
``tests/test_query_batch_equivalence.py`` enforces property-style for
every method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.data.tuples import QueryTuple


@dataclass(frozen=True)
class QueryResult:
    """Answer to one query tuple.

    ``value`` is the interpolated sensor value ``ŝ_l``; ``None`` when the
    method found no supporting data (e.g. no raw tuples within radius r —
    possible under geo-temporal skew, and exactly the failure mode the
    model cover avoids).  ``support`` is the number of raw tuples (naive /
    indexed) or kept model (always 1) behind the answer.
    """

    query: QueryTuple
    value: Optional[float]
    support: int = 0

    @property
    def answered(self) -> bool:
        return self.value is not None


class QueryBatch:
    """Columnar batch of query tuples ``q_l = (t_l, x_l, y_l)``.

    The structure-of-arrays twin of :class:`QueryTuple`, mirroring how
    :class:`~repro.data.tuples.TupleBatch` relates to ``RawTuple``: three
    read-only float64 arrays that vectorised processors consume directly.
    """

    __slots__ = ("t", "x", "y")

    def __init__(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        arrays = []
        for name, arr in (("t", t), ("x", x), ("y", y)):
            a = np.asarray(arr, dtype=np.float64)
            if a.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            arrays.append(a)
        n = len(arrays[0])
        if any(len(a) != n for a in arrays):
            raise ValueError("all columns must have the same length")
        for a in arrays:
            a.flags.writeable = False
        self.t, self.x, self.y = arrays

    @classmethod
    def _of_columns(cls, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> "QueryBatch":
        """Internal: wrap three columns the caller has already made what
        ``__init__`` makes them — read-only one-dimensional float64
        arrays of one length (e.g. slices of such arrays) — without
        re-validating.  Outside input goes through the constructor."""
        self = object.__new__(cls)
        self.t, self.x, self.y = t, x, y
        return self

    @classmethod
    def from_queries(cls, queries: Iterable[QueryTuple]) -> "QueryBatch":
        qs = list(queries)
        return cls(
            np.array([q.t for q in qs], dtype=np.float64),
            np.array([q.x for q in qs], dtype=np.float64),
            np.array([q.y for q in qs], dtype=np.float64),
        )

    @classmethod
    def from_grid(
        cls,
        t: float,
        min_x: float,
        min_y: float,
        width: float,
        height: float,
        nx: int,
        ny: int,
    ) -> "QueryBatch":
        """All cell probes of an ``(ny, nx)`` heatmap grid, row-major.

        Cell ``(i, j)`` lands at flat index ``j * nx + i``, so a result
        array reshapes straight into the ``(ny, nx)`` grid.  Degenerate
        axes (``nx == 1`` / ``ny == 1``) probe the centre of the box, the
        same convention as :meth:`Heatmap.cell_center`.  Fractions are
        computed exactly as the scalar loop (``i / (n - 1)``) so both
        paths probe bit-identical coordinates.
        """
        if nx < 1 or ny < 1:
            raise ValueError("grid must have at least one cell per axis")
        fx = np.full(nx, 0.5) if nx == 1 else np.arange(nx, dtype=np.float64) / (nx - 1)
        fy = np.full(ny, 0.5) if ny == 1 else np.arange(ny, dtype=np.float64) / (ny - 1)
        xs = min_x + fx * width
        ys = min_y + fy * height
        gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx)
        ts = np.full(nx * ny, float(t))
        return cls(ts, gx.ravel(), gy.ravel())

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[QueryTuple]:
        for i in range(len(self)):
            yield self.query(i)

    def query(self, i: int) -> QueryTuple:
        return QueryTuple(float(self.t[i]), float(self.x[i]), float(self.y[i]))

    def take(self, indices: Sequence[int] | np.ndarray) -> "QueryBatch":
        idx = np.asarray(indices, dtype=np.intp)
        return QueryBatch(self.t[idx], self.x[idx], self.y[idx])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"QueryBatch(n={len(self)})"


class BatchResult:
    """Columnar answers to one :class:`QueryBatch`.

    ``values[i]`` is NaN when query ``i`` went unanswered; ``answered``
    keeps the distinction explicit so a model that legitimately *predicts*
    NaN is not conflated with "no data" (the scalar path's ``None``).
    """

    __slots__ = ("queries", "values", "support", "answered")

    def __init__(
        self,
        queries: QueryBatch,
        values: np.ndarray,
        support: np.ndarray,
        answered: Optional[np.ndarray] = None,
    ) -> None:
        values = np.asarray(values, dtype=np.float64)
        support = np.asarray(support, dtype=np.int64)
        n = len(queries)
        if len(values) != n or len(support) != n:
            raise ValueError("values/support must match the query batch length")
        if answered is None:
            answered = ~np.isnan(values)
        else:
            answered = np.asarray(answered, dtype=bool)
            if len(answered) != n:
                raise ValueError("answered mask must match the query batch length")
        # Unanswered slots always read as NaN, whatever the processor wrote.
        values = np.where(answered, values, np.nan)
        self.queries = queries
        self.values = values
        self.support = support
        self.answered = answered

    @classmethod
    def _of_columns(
        cls,
        queries: QueryBatch,
        values: np.ndarray,
        support: np.ndarray,
        answered: np.ndarray,
    ) -> "BatchResult":
        """Internal: wrap columns the caller has already made what
        ``__init__`` makes them — float64 ``values`` that are NaN
        wherever the bool ``answered`` is False, int64 ``support``, each
        of the batch's length — without re-validating or re-masking."""
        self = object.__new__(cls)
        self.queries, self.values, self.support, self.answered = (
            queries, values, support, answered,
        )  # fmt: skip
        return self

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_answered(self) -> int:
        return int(np.count_nonzero(self.answered))

    def result(self, i: int) -> QueryResult:
        """Row view: the scalar :class:`QueryResult` for query ``i``."""
        value = float(self.values[i]) if self.answered[i] else None
        return QueryResult(
            query=self.queries.query(i), value=value, support=int(self.support[i])
        )

    def results(self) -> List[QueryResult]:
        return [self.result(i) for i in range(len(self))]

    def grid(self, ny: int, nx: int) -> np.ndarray:
        """Values reshaped to an ``(ny, nx)`` heatmap grid (NaN = no data)."""
        if ny * nx != len(self):
            raise ValueError(f"cannot reshape {len(self)} results to ({ny}, {nx})")
        return self.values.reshape(ny, nx).copy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchResult(n={len(self)}, answered={self.n_answered})"


@runtime_checkable
class PointQueryProcessor(Protocol):
    """A method for answering one query tuple against one window.

    Processors may additionally expose a vectorised
    ``process_batch(QueryBatch) -> BatchResult`` (all built-in processors
    do); callers should go through :func:`process_batch`, which falls back
    to the scalar loop when the method is absent.  ``process_batch`` is
    kept out of the protocol so that minimal scalar-only processors still
    satisfy ``isinstance`` checks.
    """

    name: str

    def process(self, query: QueryTuple) -> QueryResult:
        ...


def process_batch_scalar(
    processor: PointQueryProcessor, queries: QueryBatch
) -> BatchResult:
    """Reference batched execution: one ``process`` call per query.

    This is both the fallback for scalar-only processors and the oracle
    the equivalence tests compare the vectorised implementations against.
    """
    n = len(queries)
    values = np.full(n, np.nan)
    support = np.zeros(n, dtype=np.int64)
    answered = np.zeros(n, dtype=bool)
    for i in range(n):
        res = processor.process(queries.query(i))
        if res.value is not None:
            values[i] = res.value
            answered[i] = True
        support[i] = res.support
    return BatchResult(queries, values, support, answered)


def process_batch(processor: PointQueryProcessor, queries: QueryBatch) -> BatchResult:
    """Batched execution through ``processor``'s fastest available path."""
    batched = getattr(processor, "process_batch", None)
    if batched is not None:
        return batched(queries)
    return process_batch_scalar(processor, queries)
