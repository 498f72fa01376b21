"""The web interface (Section 3, Figure 5).

Three modes, exactly as demonstrated:

* **point query** — click a point, get the interpolated CO2 in ppm;
* **continuous query** — select route points; the app computes and
  displays the average CO2 level for each point on the route;
* **heatmap visualisation** — the Ad-KMN centroids as emitting points,
  coloured from acceptable (green) to dangerous (red).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.app.heatmap import Heatmap
from repro.client.osha import HealthLevel, classify_co2, color_for_level, describe_co2
from repro.geo.coords import BoundingBox
from repro.query.continuous import uniform_query_tuples, waypoint_trajectory
from repro.query.sharded import ShardedQueryEngine


@dataclass(frozen=True)
class PointReading:
    """What the web UI shows for a clicked point."""

    x: float
    y: float
    co2_ppm: Optional[float]
    text: str


@dataclass(frozen=True)
class RouteReading:
    """Per-route-point reading with its marker colour."""

    x: float
    y: float
    co2_ppm: Optional[float]
    marker_color: Optional[str]


@dataclass(frozen=True)
class CentroidMarker:
    """One Ad-KMN centroid as a heatmap emitting point."""

    x: float
    y: float
    co2_ppm: float
    level: HealthLevel
    color: str


class WebInterface:
    """Server-backed implementation of the three web-UI modes."""

    def __init__(self, engine: ShardedQueryEngine) -> None:
        self._engine = engine

    @property
    def engine(self) -> ShardedQueryEngine:
        return self._engine

    # -- mode 1: single point query ------------------------------------------

    def point_query(self, t: float, x: float, y: float) -> PointReading:
        """Interpolated CO2 at a clicked map point.

        ``co2_ppm`` is the model's raw answer; the text describes it
        clamped at zero, as the route readings and markers are, since a
        model extrapolated far off its sub-region can go negative."""
        result = self._engine.point_query(t, x, y, method="model-cover")
        if result.value is None:
            return PointReading(x=x, y=y, co2_ppm=None, text="No data at this point.")
        return PointReading(
            x=x, y=y, co2_ppm=result.value, text=describe_co2(max(result.value, 0.0))
        )

    # -- mode 2: continuous query over clicked route points ---------------------

    def continuous_query(
        self,
        route_points: Sequence[Tuple[float, float]],
        t_start: float,
        duration_s: float = 1800.0,
        updates: int = 30,
    ) -> List[RouteReading]:
        """Average CO2 for each point along a user-selected route.

        Runs on the engine's batched path: the route's query stream is
        grouped by window and each group is answered by one vectorised
        ``process_batch`` call (groups in parallel on the engine's
        executor), instead of one scalar ``process`` per route point.
        """
        if len(route_points) < 2:
            raise ValueError("select at least two route points")
        traj = waypoint_trajectory(route_points, t_start, t_start + duration_s)
        interval = duration_s / max(updates - 1, 1)
        queries = uniform_query_tuples(traj, t_start, interval, updates)
        result = self._engine.continuous_query_batch(queries, method="model-cover")
        readings: List[RouteReading] = []
        for i in range(len(result)):
            x = float(result.queries.x[i])
            y = float(result.queries.y[i])
            if not result.answered[i]:
                readings.append(RouteReading(x, y, None, None))
            else:
                value = float(result.values[i])
                level = classify_co2(max(value, 0.0))
                readings.append(
                    RouteReading(x, y, value, color_for_level(level))
                )
        return readings

    # -- mode 3: heatmap visualisation ------------------------------------------

    def heatmap(
        self,
        t: float,
        bounds: BoundingBox,
        nx: int = 40,
        ny: int = 30,
        splat_sigma_m: Optional[float] = None,
    ) -> Heatmap:
        """Heatmap of the area at time ``t``.

        Faithful to the demo (Figure 5(b)): "the emitting points are the
        centroids computed by the Ad-KMN algorithm with its pollution
        level" — each centroid emits its model's value at the centroid,
        and the grid is the Gaussian-weighted blend of the emitters.
        Rendering from centroid values keeps every cell inside the range
        the models actually predict *at* their centroids, instead of
        linearly extrapolating each model kilometres off its sub-region.
        """
        markers = self.centroid_markers(t)
        cx = np.array([m.x for m in markers])
        cy = np.array([m.y for m in markers])
        cv = np.array([m.co2_ppm for m in markers])
        if splat_sigma_m is None:
            splat_sigma_m = max(bounds.width, bounds.height) / 8.0
        xs = np.linspace(bounds.min_x, bounds.max_x, nx)
        ys = np.linspace(bounds.min_y, bounds.max_y, ny)
        gx, gy = np.meshgrid(xs, ys)
        d2 = (gx[..., None] - cx) ** 2 + (gy[..., None] - cy) ** 2
        w = np.exp(-d2 / (2.0 * splat_sigma_m**2))
        denom = np.sum(w, axis=-1)
        grid = np.where(
            denom > 1e-12, np.sum(w * cv, axis=-1) / np.maximum(denom, 1e-12),
            np.nan,
        )
        return Heatmap(grid=grid, bounds=bounds)

    def model_grid(
        self,
        t: float,
        bounds: BoundingBox,
        nx: int = 40,
        ny: int = 30,
    ) -> Heatmap:
        """Alternative heatmap: evaluate the owning model at every cell
        (exposes the models' raw extrapolation behaviour; useful for
        debugging covers, not what the demo UI showed).  The grid is one
        cover plan through the engine."""
        grid = self._engine.heatmap_grid(t, bounds, nx=nx, ny=ny, method="model-cover")
        return Heatmap(grid=grid, bounds=bounds)

    def centroid_markers(self, t: float) -> List[CentroidMarker]:
        """The emitting points: Ad-KMN centroids with their levels.

        The covers of the window that owns ``t``, one per shard with
        rows in it, come from the engine's cover cache over one pinned
        binding (:meth:`ShardedQueryEngine.covers_at`): coherent under
        concurrent ingest, and repeated heatmap renders of the same
        sealed window reuse the cached fits instead of refitting Ad-KMN
        per request.
        """
        markers: List[CentroidMarker] = []
        for cover in self._engine.covers_at(t):
            for (cx, cy), model in zip(cover.centroids, cover.models):
                value = max(float(model.predict(t, cx, cy)), 0.0)
                level = classify_co2(value)
                markers.append(
                    CentroidMarker(
                        x=float(cx),
                        y=float(cy),
                        co2_ppm=value,
                        level=level,
                        color=color_for_level(level),
                    )
                )
        return markers
