"""Geographic substrate: coordinates, distances, bounding boxes, regions.

EnviroMeter operates over a geographical region ``R`` (central Lausanne in
the paper).  Everything downstream — the synthetic dataset, the spatial
indexes, the Ad-KMN clustering — works in a local metric coordinate frame,
so this package provides the WGS84 <-> local-metre projection and the basic
planar geometry primitives, and the region grid that shards the
tuple stream.  Routes, bus lines and query routes alike, are polylines
of waypoints; there is no street graph.
"""

from repro.geo.coords import (
    EARTH_RADIUS_M,
    BoundingBox,
    LocalProjection,
    euclidean,
    haversine_m,
)
from repro.geo.region import Region, RegionGrid

__all__ = [
    "EARTH_RADIUS_M",
    "BoundingBox",
    "LocalProjection",
    "euclidean",
    "haversine_m",
    "Region",
    "RegionGrid",
]
