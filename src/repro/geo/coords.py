"""Coordinates, distances and bounding boxes.

All query processing in the reproduction happens in a *local tangent-plane*
frame measured in metres, produced by :class:`LocalProjection`.  Radius
searches (``r = 1 km`` in the paper) are therefore plain Euclidean disk
queries, which matches how the paper's Python R-tree/VP-tree baselines
operated on projected coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

EARTH_RADIUS_M = 6_371_008.8
"""Mean Earth radius in metres (IUGG)."""


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres between two WGS84 points.

    Used when generating the Lausanne dataset (bus odometry along the street
    graph) and when validating the local projection.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def euclidean(x1: float, y1: float, x2: float, y2: float) -> float:
    """Planar Euclidean distance in the local frame (metres)."""
    dx = x1 - x2
    dy = y1 - y2
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular projection anchored at ``(origin_lat, origin_lon)``.

    For a city-scale region (Lausanne is roughly 6 km x 4 km) the
    equirectangular approximation is accurate to well under a metre, which
    is far below the sensing noise of a mobile CO2 sensor.

    The projection maps WGS84 ``(lat, lon)`` to planar ``(x, y)`` metres
    with ``x`` pointing east and ``y`` pointing north.
    """

    origin_lat: float
    origin_lon: float

    def to_local(self, lat: float, lon: float) -> Tuple[float, float]:
        """Project a WGS84 point to local metres."""
        x = math.radians(lon - self.origin_lon) * EARTH_RADIUS_M * math.cos(
            math.radians(self.origin_lat)
        )
        y = math.radians(lat - self.origin_lat) * EARTH_RADIUS_M
        return x, y

    def to_wgs84(self, x: float, y: float) -> Tuple[float, float]:
        """Inverse-project local metres back to WGS84 ``(lat, lon)``."""
        lat = self.origin_lat + math.degrees(y / EARTH_RADIUS_M)
        lon = self.origin_lon + math.degrees(
            x / (EARTH_RADIUS_M * math.cos(math.radians(self.origin_lat)))
        )
        return lat, lon


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle in the local frame.

    The shard router, the R-tree and the region partitioning all use this
    as the common rectangle type.  Degenerate (point) boxes are allowed.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"invalid bounding box: ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    @classmethod
    def from_points(cls, points: Iterable[Tuple[float, float]]) -> "BoundingBox":
        """Smallest box enclosing ``points``; raises on an empty iterable."""
        it = iter(points)
        try:
            x0, y0 = next(it)
        except StopIteration:
            raise ValueError("cannot build a bounding box from zero points") from None
        min_x = max_x = x0
        min_y = max_y = y0
        for x, y in it:
            min_x = min(min_x, x)
            max_x = max(max_x, x)
            min_y = min(min_y, y)
            max_y = max(max_y, y)
        return cls(min_x, min_y, max_x, max_y)

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0

    def contains_point(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def intersects(self, other: "BoundingBox") -> bool:
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expand(self, margin: float) -> "BoundingBox":
        """Box grown by ``margin`` metres on every side."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def min_distance_to(self, x: float, y: float) -> float:
        """Distance from ``(x, y)`` to the nearest point of the box.

        Zero when the point is inside.  This is the R-tree pruning test for
        radius searches: a subtree can be skipped when
        ``min_distance_to(q) > r``.
        """
        dx = max(self.min_x - x, 0.0, x - self.max_x)
        dy = max(self.min_y - y, 0.0, y - self.max_y)
        return math.hypot(dx, dy)

    def intersects_circle(self, x: float, y: float, radius: float) -> bool:
        return self.min_distance_to(x, y) <= radius

    def grid_points(self, nx: int, ny: int) -> Iterator[Tuple[float, float]]:
        """Yield an ``nx x ny`` lattice of points covering the box.

        Used by the heatmap renderer and by the experiment harness to place
        evaluation queries uniformly over the region.
        """
        if nx < 1 or ny < 1:
            raise ValueError("grid dimensions must be >= 1")
        for j in range(ny):
            fy = 0.5 if ny == 1 else j / (ny - 1)
            y = self.min_y + fy * self.height
            for i in range(nx):
                fx = 0.5 if nx == 1 else i / (nx - 1)
                yield self.min_x + fx * self.width, y


def bbox_of_xy(xs: Sequence[float], ys: Sequence[float]) -> BoundingBox:
    """Bounding box of parallel coordinate sequences (vector-friendly)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if not len(xs):
        raise ValueError("cannot build a bounding box from zero points")
    return BoundingBox(min(xs), min(ys), max(xs), max(ys))
