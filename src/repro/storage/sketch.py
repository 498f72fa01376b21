"""Per-(shard, window) zone-map sketches for plan-time scatter pruning.

A :class:`WindowSketch` is the classic zone map / small materialized
aggregate of one bound window slice: row count, spatial bounding box,
time range and value range.  The sharded query layer consults it at plan
build time to drop ``(shard, window)`` scan ops whose bounding volume
provably cannot intersect a disk query — the fan-out then costs
O(relevant shards) instead of O(shards x windows).

Correctness contract (what makes pruning *superset-safe*): a sketch
always covers — never under-covers — the rows of the slice it stamps.
Every tuple of the slice lies inside the sketch's bounding volume, so
"sketch cannot reach the disk" implies "no tuple of the slice is within
radius", which implies the pruned scan would have contributed zero hits.
The exact gather (:mod:`repro.query.pipeline.gather`) orders hits
canonically by global stream position, so dropping provably-empty scans
is byte-invisible.

Sketches are immutable (frozen dataclasses).  Growing a slice produces a
*new* sketch via :meth:`extended`; bounds only ever widen, so a sketch
that is fresher than the slice a reader pinned is still superset-safe —
though the router hands both out under one lock so they are in fact
exactly coherent (see :meth:`repro.storage.shards.ShardRouter.snapshot_window_sketch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.data.tuples import TupleBatch

__all__ = ["WindowSketch", "bbox_disk_overlaps"]


def bbox_disk_overlaps(min_x, max_x, min_y, max_y, xs, ys, radius: float):
    """Elementwise: can a radius-``radius`` disk at ``(xs, ys)`` contain a
    point of the box ``[min_x, max_x] x [min_y, max_y]``?

    The one statement of the zone-map test.  Bounds and coordinates
    broadcast, so :meth:`WindowSketch.disk_overlaps` evaluates it for one
    box over a batch and the sharded plan builder for a ``(queries,
    shards)`` table of boxes in one pass — the same float operations per
    element either way.

    It tests the clamped distance from each query point to the box
    against the radius with the *same* ``d^2 <= r^2`` comparison the
    naive scan uses (:func:`repro.query.pipeline.gather.scan_pairs`).
    For a tuple sitting exactly on the bbox edge at exactly distance
    ``radius``, the clamped coordinate deltas are bitwise negations of
    the scan's, so squaring gives the identical float and the boundary
    tuple is kept — pruning can never drop a hit the scan would have
    found (IEEE multiplication and addition are monotone on non-negative
    operands, so the bbox lower bound survives rounding).
    """
    dx = np.maximum(np.maximum(min_x - xs, xs - max_x), 0.0)
    dy = np.maximum(np.maximum(min_y - ys, ys - max_y), 0.0)
    return dx * dx + dy * dy <= radius * radius


@dataclass(frozen=True)
class WindowSketch:
    """Zone map of one window slice: count, bbox, time and value ranges.

    An empty slice is represented by :data:`WindowSketch.EMPTY`
    (``n_rows == 0`` with inverted infinite bounds), which overlaps
    nothing by construction.
    """

    n_rows: int
    min_x: float
    max_x: float
    min_y: float
    max_y: float
    min_t: float
    max_t: float
    min_s: float
    max_s: float

    EMPTY: ClassVar["WindowSketch"]  # assigned after the class body

    @property
    def is_empty(self) -> bool:
        return self.n_rows == 0

    def bounds(self) -> tuple:
        """The eight bounds in field order: the persisted form (segment
        headers, the manifest), which :meth:`restored` inverts."""
        return (
            self.min_x, self.max_x, self.min_y, self.max_y,
            self.min_t, self.max_t, self.min_s, self.max_s,
        )  # fmt: skip

    @classmethod
    def restored(cls, n_rows: int, bounds) -> "WindowSketch":
        return cls(n_rows, *bounds) if n_rows else cls.EMPTY

    @classmethod
    def of(cls, batch: TupleBatch) -> "WindowSketch":
        """The exact sketch of a pinned slice (O(rows), vectorised)."""
        if not len(batch):
            return cls.EMPTY
        return cls(
            n_rows=len(batch),
            min_x=float(batch.x.min()),
            max_x=float(batch.x.max()),
            min_y=float(batch.y.min()),
            max_y=float(batch.y.max()),
            min_t=float(batch.t.min()),
            max_t=float(batch.t.max()),
            min_s=float(batch.s.min()),
            max_s=float(batch.s.max()),
        )

    def extended(
        self, t: np.ndarray, x: np.ndarray, y: np.ndarray, s: np.ndarray
    ) -> "WindowSketch":
        """A new sketch additionally covering the given rows.

        This is the incremental-ingest path: O(delta rows), and because
        bounds only widen, the result covers every row the old sketch
        covered.  Empty deltas return ``self`` unchanged.
        """
        if not len(t):
            return self
        return WindowSketch(
            n_rows=self.n_rows + len(t),
            min_x=min(self.min_x, float(x.min())),
            max_x=max(self.max_x, float(x.max())),
            min_y=min(self.min_y, float(y.min())),
            max_y=max(self.max_y, float(y.max())),
            min_t=min(self.min_t, float(t.min())),
            max_t=max(self.max_t, float(t.max())),
            min_s=min(self.min_s, float(s.min())),
            max_s=max(self.max_s, float(s.max())),
        )

    def merge(self, other: "WindowSketch") -> "WindowSketch":
        """Union of two sketches (covers both slices)."""
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        return WindowSketch(
            n_rows=self.n_rows + other.n_rows,
            min_x=min(self.min_x, other.min_x),
            max_x=max(self.max_x, other.max_x),
            min_y=min(self.min_y, other.min_y),
            max_y=max(self.max_y, other.max_y),
            min_t=min(self.min_t, other.min_t),
            max_t=max(self.max_t, other.max_t),
            min_s=min(self.min_s, other.min_s),
            max_s=max(self.max_s, other.max_s),
        )

    def disk_overlaps(
        self, xs: np.ndarray, ys: np.ndarray, radius: float
    ) -> np.ndarray:
        """Per-query bool: can a radius-``radius`` disk at ``(x, y)``
        contain any covered tuple?  :func:`bbox_disk_overlaps` over this
        sketch's box (superset-safe, see there); an empty sketch overlaps
        nothing.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if self.is_empty:
            return np.zeros(xs.shape, dtype=bool)
        return bbox_disk_overlaps(
            self.min_x, self.max_x, self.min_y, self.max_y, xs, ys, radius
        )


# The canonical empty sketch: inverted infinite bounds, overlaps nothing.
WindowSketch.EMPTY = WindowSketch(
    n_rows=0,
    min_x=np.inf, max_x=-np.inf,
    min_y=np.inf, max_y=-np.inf,
    min_t=np.inf, max_t=-np.inf,
    min_s=np.inf, max_s=-np.inf,
)
