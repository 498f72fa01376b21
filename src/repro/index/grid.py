"""Uniform grid index.

Not in the paper — included as an ablation candidate (DESIGN.md §5.5):
for city-scale data with a fixed 1 km query radius, a coarse uniform grid
is the classic cheap alternative to tree indexes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


class GridIndex:
    """Hash-grid over 2-D points with cell size ``cell_m``.

    ``query_radius`` visits only the cells overlapping the query disk and
    distance-tests the points inside them.
    """

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        cell_m: float = 250.0,
    ) -> None:
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have the same length")
        if cell_m <= 0:
            raise ValueError("cell size must be positive")
        self._cell = cell_m
        self._xs = [float(v) for v in xs]
        self._ys = [float(v) for v in ys]
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        for i in range(len(xs)):
            key = self._key(self._xs[i], self._ys[i])
            self._cells.setdefault(key, []).append(i)

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        return math.floor(x / self._cell), math.floor(y / self._cell)

    def __len__(self) -> int:
        return len(self._xs)

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    def query_radius(self, x: float, y: float, radius: float) -> List[int]:
        """Indices of all points within ``radius`` of ``(x, y)``.

        Probes the cells of the disk's bounding square, or — when the
        square holds more cells than are occupied (a wide radius, a
        sparse index) — walks the occupied ones and keeps those inside
        it, so the cost is bounded by the data as well as by the disk.
        Either way buckets are visited in ``(cx, cy)`` order.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        r2 = radius * radius
        cx0, cy0 = self._key(x - radius, y - radius)
        cx1, cy1 = self._key(x + radius, y + radius)
        if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) <= len(self._cells):
            keys = [(cx, cy) for cx in range(cx0, cx1 + 1) for cy in range(cy0, cy1 + 1)]
        else:
            keys = sorted(
                (cx, cy)
                for cx, cy in self._cells
                if cx0 <= cx <= cx1 and cy0 <= cy <= cy1
            )
        out: List[int] = []
        for key in keys:
            bucket = self._cells.get(key)
            if not bucket:
                continue
            for i in bucket:
                dx = self._xs[i] - x
                dy = self._ys[i] - y
                if dx * dx + dy * dy <= r2:
                    out.append(i)
        return out
