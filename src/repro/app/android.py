"""The Android application, simulated (Section 3, Figure 4).

A scripted session object with the app's demonstrated abilities:

* show the CO2 concentration at the current position,
* record a route and summarise it against OSHA guidance,
* change settings (server address, position update interval, and whether
  to use the model cache).

The session talks to the server exactly like the real app: through a
cellular link with either the baseline or the model-cache strategy, so
everything it does lands in the same traffic ledger the bandwidth
experiment reads.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.app.settings import AppSettings
from repro.client.baseline import BaselineClient
from repro.client.modelcache import ModelCacheClient
from repro.client.osha import describe_co2
from repro.client.routes import RecordedRoute, RouteRecorder
from repro.data.tuples import QueryTuple
from repro.network.link import CellularLink
from repro.network.stats import TrafficStats
from repro.server.async_server import EngineQueryService


class AndroidSession:
    """One run of the EnviroMeter app on a phone."""

    def __init__(
        self,
        service: EngineQueryService,
        settings: Optional[AppSettings] = None,
        link: Optional[CellularLink] = None,
    ) -> None:
        self._service = service
        self._link = link or CellularLink()
        self.settings = settings or AppSettings()
        self._client = self._make_client()
        self._recorder: Optional[RouteRecorder] = None
        self._position: Optional[Tuple[float, float]] = None
        self._clock_s = 0.0

    def _make_client(self):
        if self.settings.use_model_cache:
            return ModelCacheClient(self._service, self._link)
        return BaselineClient(self._service, self._link)

    # -- device state -------------------------------------------------------

    @property
    def traffic(self) -> TrafficStats:
        return self._client.stats

    def set_clock(self, t: float) -> None:
        """Set the phone's clock (experiments drive time explicitly)."""
        if t < self._clock_s:
            raise ValueError("clock cannot go backwards")
        self._clock_s = t

    def update_position(self, x: float, y: float) -> None:
        """A GPS fix arrives."""
        self._position = (x, y)

    # -- app features ----------------------------------------------------------

    def current_reading(self) -> Optional[float]:
        """CO2 at the current position ("quickly find the CO2
        concentration at their current position")."""
        if self._position is None:
            raise RuntimeError("no GPS fix yet")
        x, y = self._position
        return self._client.query(QueryTuple(t=self._clock_s, x=x, y=y))

    def current_reading_text(self) -> str:
        value = self.current_reading()
        if value is None:
            return "No pollution data available here."
        return describe_co2(max(value, 0.0))

    def start_route_recording(self, name: str) -> None:
        if self._recorder is not None and self._recorder.recording:
            raise RuntimeError("a route recording is already running")
        self._recorder = RouteRecorder(self._client.query)
        self._recorder.start(name)

    def record_position(self, t: float, x: float, y: float) -> None:
        """Position update while recording (every
        ``settings.position_update_interval_s`` on the real phone)."""
        if self._recorder is None or not self._recorder.recording:
            raise RuntimeError("not recording a route")
        self.set_clock(t)
        self.update_position(x, y)
        self._recorder.update_position(t, x, y)

    def stop_route_recording(self) -> RecordedRoute:
        if self._recorder is None or not self._recorder.recording:
            raise RuntimeError("not recording a route")
        route = self._recorder.stop()
        return route

    # -- settings menu ------------------------------------------------------------

    def apply_settings(self, settings: AppSettings) -> None:
        """Change settings; switching the caching strategy re-creates the
        client (cache state is not carried across strategies)."""
        strategy_changed = settings.use_model_cache != self.settings.use_model_cache
        self.settings = settings
        if strategy_changed:
            self._client = self._make_client()

    def drive_route(
        self,
        waypoints: List[Tuple[float, float]],
        t_start: float,
        duration_s: float,
        name: str = "recorded-route",
    ) -> RecordedRoute:
        """Convenience: record a whole route along waypoints with position
        updates at the configured interval."""
        from repro.query.continuous import uniform_query_tuples, waypoint_trajectory

        interval = self.settings.position_update_interval_s
        count = max(2, int(duration_s / interval) + 1)
        traj = waypoint_trajectory(waypoints, t_start, t_start + duration_s)
        queries = uniform_query_tuples(traj, t_start, interval, count)
        self.start_route_recording(name)
        for q in queries:
            self.record_position(q.t, q.x, q.y)
        return self.stop_route_recording()
