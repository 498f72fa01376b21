"""Raw tuples, query tuples and columnar tuple batches.

The paper's raw tuple is ``b_i = (t_i, x_i, y_i, s_i)`` — timestamp,
position in the local frame, sensor value — and the query tuple is
``q_l = (t_l, x_l, y_l)`` (Section 2.1/2.2).  :class:`TupleBatch` is the
columnar (structure-of-arrays) representation the shard columns and the
model fitting code operate on; :class:`RawTuple` is the row view used at
API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, slots=True)
class RawTuple:
    """One community-sensed measurement ``b_i = (t_i, x_i, y_i, s_i)``.

    ``t`` is seconds since the start of the deployment, ``x``/``y`` are
    metres in the local frame, ``s`` is the sensor value (ppm for CO2).
    """

    t: float
    x: float
    y: float
    s: float

    def position(self) -> Tuple[float, float]:
        return self.x, self.y


@dataclass(frozen=True, slots=True)
class QueryTuple:
    """A mobile object's query ``q_l = (t_l, x_l, y_l)``."""

    t: float
    x: float
    y: float

    def position(self) -> Tuple[float, float]:
        return self.x, self.y


class TupleBatch:
    """Columnar batch of raw tuples backed by numpy arrays.

    Immutable by convention: the arrays are exposed read-only so that
    windows can be cheap zero-copy slices of the full dataset.
    """

    __slots__ = ("t", "x", "y", "s")

    def __init__(
        self,
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        s: np.ndarray,
    ) -> None:
        arrays = []
        for name, arr in (("t", t), ("x", x), ("y", y), ("s", s)):
            a = np.asarray(arr, dtype=np.float64)
            if a.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            arrays.append(a)
        n = len(arrays[0])
        if any(len(a) != n for a in arrays):
            raise ValueError("all columns must have the same length")
        for a in arrays:
            a.flags.writeable = False
        self.t, self.x, self.y, self.s = arrays

    @classmethod
    def _of_columns(
        cls, t: np.ndarray, x: np.ndarray, y: np.ndarray, s: np.ndarray
    ) -> "TupleBatch":
        """Internal: wrap four columns the caller has already checked to
        be what ``__init__`` makes them — read-only one-dimensional
        float64 arrays of one length — without re-validating.  Outside
        input goes through the constructor."""
        self = object.__new__(cls)
        self.t, self.x, self.y, self.s = t, x, y, s
        return self

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[RawTuple]) -> "TupleBatch":
        rows = list(rows)
        return cls(
            np.array([r.t for r in rows], dtype=np.float64),
            np.array([r.x for r in rows], dtype=np.float64),
            np.array([r.y for r in rows], dtype=np.float64),
            np.array([r.s for r in rows], dtype=np.float64),
        )

    @classmethod
    def empty(cls) -> "TupleBatch":
        z = np.empty(0, dtype=np.float64)
        return cls(z, z.copy(), z.copy(), z.copy())

    # -- container protocol -----------------------------------------------

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[RawTuple]:
        for i in range(len(self)):
            yield self.row(i)

    def row(self, i: int) -> RawTuple:
        return RawTuple(
            float(self.t[i]), float(self.x[i]), float(self.y[i]), float(self.s[i])
        )

    def slice(self, start: int, stop: int) -> "TupleBatch":
        """Zero-copy contiguous slice ``[start, stop)``."""
        return TupleBatch(
            self.t[start:stop], self.x[start:stop], self.y[start:stop], self.s[start:stop]
        )

    def take(self, indices: Sequence[int] | np.ndarray) -> "TupleBatch":
        idx = np.asarray(indices, dtype=np.intp)
        return TupleBatch(self.t[idx], self.x[idx], self.y[idx], self.s[idx])

    def select_mask(self, mask: np.ndarray) -> "TupleBatch":
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise ValueError("mask length must match batch length")
        return TupleBatch(self.t[mask], self.x[mask], self.y[mask], self.s[mask])

    # -- convenience ------------------------------------------------------

    def is_view_of(self, other: "TupleBatch") -> bool:
        """True when every column of ``self`` shares memory with ``other``
        — i.e. this batch is a zero-copy view (slice/snapshot) of it.
        Empty batches own no storage and are never views of anything."""
        if not len(self):
            return False
        return all(
            np.shares_memory(getattr(self, name), getattr(other, name))
            for name in ("t", "x", "y", "s")
        )

    def positions(self) -> np.ndarray:
        """``(n, 2)`` array of positions (a copy)."""
        return np.column_stack((self.x, self.y))

    def rows(self) -> List[RawTuple]:
        return list(self)

    def time_span(self) -> Tuple[float, float]:
        if not len(self):
            raise ValueError("empty batch has no time span")
        return float(self.t[0]), float(self.t[-1])

    def is_time_sorted(self) -> bool:
        return bool(np.all(np.diff(self.t) >= 0.0)) if len(self) > 1 else True

    def concat(self, other: "TupleBatch") -> "TupleBatch":
        return TupleBatch(
            np.concatenate((self.t, other.t)),
            np.concatenate((self.x, other.x)),
            np.concatenate((self.y, other.y)),
            np.concatenate((self.s, other.s)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TupleBatch(n={len(self)})"
