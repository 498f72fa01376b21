"""Common protocol for spatial indexes and the brute-force reference.

The radius search is the only operation the paper's query methods need:
find all raw tuples within ``r`` of the query position (Section 2.2).
All indexes return *indices into the batch they were built from*, so the
caller can average the corresponding sensor values.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, runtime_checkable


@runtime_checkable
class SpatialIndex(Protocol):
    """Structural type implemented by every index in this package."""

    def query_radius(self, x: float, y: float, radius: float) -> List[int]:
        """Indices of all points within ``radius`` of ``(x, y)``."""
        ...

    def __len__(self) -> int:
        """Number of indexed points."""
        ...


def brute_force_radius(
    xs: Sequence[float], ys: Sequence[float], x: float, y: float, radius: float
) -> List[int]:
    """Reference implementation: linear scan with per-point distance test.

    This is the paper's *naive* search (Section 2.2), also used as the
    test oracle for every index.  Boundary points (distance exactly equal
    to ``radius``) are included.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    r2 = radius * radius
    out: List[int] = []
    for i in range(len(xs)):
        dx = xs[i] - x
        dy = ys[i] - y
        if dx * dx + dy * dy <= r2:
            out.append(i)
    return out
