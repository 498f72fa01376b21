"""Geographic substrate: coordinates, distances, bounding boxes, regions.

EnviroMeter operates over a geographical region ``R`` (central Lausanne in
the paper).  Everything downstream — the synthetic dataset, the spatial
indexes, the Ad-KMN clustering — works in a local metric coordinate frame,
so this package provides the WGS84 <-> local-metre projection and the basic
planar geometry primitives.

The street graph (``repro.geo.streetgraph``, networkx-backed) is imported
from its submodule, so importing this package — and with it the server —
does not import networkx.
"""

from repro.geo.coords import (
    EARTH_RADIUS_M,
    BoundingBox,
    LocalProjection,
    euclidean,
    haversine_m,
)
from repro.geo.region import Region, RegionGrid, SubRegion

__all__ = [
    "EARTH_RADIUS_M",
    "BoundingBox",
    "LocalProjection",
    "euclidean",
    "haversine_m",
    "Region",
    "RegionGrid",
    "SubRegion",
]
