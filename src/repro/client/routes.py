"""Route recording (Section 3).

"The application has the ability to record routes.  After a route has
been recorded, the user can view it on a map.  In addition, the
application presents the average pollution level through the route",
with per-point markers coloured green→red.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.client.osha import HealthLevel, classify_co2, color_for_level, is_acceptable
from repro.data.tuples import QueryTuple


@dataclass(frozen=True)
class RoutePoint:
    """One recorded position with its pollution reading."""

    t: float
    x: float
    y: float
    co2_ppm: Optional[float]

    @property
    def level(self) -> Optional[HealthLevel]:
        """Severity of the reading, clamped at zero: a model extrapolated
        far off its sub-region can answer below it."""
        return None if self.co2_ppm is None else classify_co2(max(self.co2_ppm, 0.0))

    @property
    def marker_color(self) -> Optional[str]:
        level = self.level
        return None if level is None else color_for_level(level)


@dataclass
class RecordedRoute:
    """A finished recording with the app's summary statistics."""

    name: str
    points: List[RoutePoint]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a recorded route needs at least one point")

    @property
    def readings(self) -> List[float]:
        return [p.co2_ppm for p in self.points if p.co2_ppm is not None]

    @property
    def average_ppm(self) -> Optional[float]:
        """The app's headline: average pollution through the route."""
        values = self.readings
        if not values:
            return None
        return sum(values) / len(values)

    @property
    def peak_ppm(self) -> Optional[float]:
        values = self.readings
        return max(values) if values else None

    @property
    def acceptable(self) -> Optional[bool]:
        """Whether the average is acceptable per the OSHA guidance (a
        negative average, from extrapolated readings, is clamped at zero
        as :attr:`RoutePoint.level` clamps each reading)."""
        avg = self.average_ppm
        return None if avg is None else is_acceptable(max(avg, 0.0))

    def summary_text(self) -> str:
        """The informative text shown after recording stops."""
        avg = self.average_ppm
        if avg is None:
            return f"Route {self.name!r}: no pollution data available."
        verdict = "acceptable" if self.acceptable else "NOT acceptable"
        return (
            f"Route {self.name!r}: average {avg:.0f} ppm CO2 over "
            f"{len(self.points)} points — {verdict} per OSHA guidelines."
        )


QueryFn = Callable[[QueryTuple], Optional[float]]
"""Any value source: a client, a processor's process().value, etc."""


class RouteRecorder:
    """Records a route by querying a value source at each position update."""

    def __init__(self, query_fn: QueryFn) -> None:
        self._query_fn = query_fn
        self._points: List[RoutePoint] = []
        self._recording = False
        self._name = ""

    @property
    def recording(self) -> bool:
        return self._recording

    def start(self, name: str) -> None:
        if self._recording:
            raise RuntimeError("already recording a route")
        self._name = name
        self._points = []
        self._recording = True

    def update_position(self, t: float, x: float, y: float) -> RoutePoint:
        """One GPS position update while recording."""
        if not self._recording:
            raise RuntimeError("not recording; call start() first")
        value = self._query_fn(QueryTuple(t=t, x=x, y=y))
        point = RoutePoint(t=t, x=x, y=y, co2_ppm=value)
        self._points.append(point)
        return point

    def stop(self) -> RecordedRoute:
        """Finish the recording and return the summarised route."""
        if not self._recording:
            raise RuntimeError("not recording")
        if not self._points:
            raise RuntimeError("cannot stop: no points recorded")
        self._recording = False
        return RecordedRoute(name=self._name, points=list(self._points))
