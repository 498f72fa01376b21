"""Continuous query driving (Query 1).

A mobile object ``v_q`` transmits query tuples at a *uniform interval*
(Section 2.2: "|t_{l+1} - t_l| is always the same").  The driver walks a
trajectory, generates the uniform query-tuple stream, and feeds it to any
point-query processor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.data.tuples import QueryTuple
from repro.query.base import PointQueryProcessor, QueryBatch, QueryResult

Trajectory = Callable[[float], Tuple[float, float]]
"""Position of the mobile object as a function of time."""


def uniform_query_tuples(
    trajectory: Trajectory,
    t_start: float,
    interval_s: float,
    count: int,
) -> List[QueryTuple]:
    """The uniform query-tuple stream of Query 1."""
    if interval_s <= 0:
        raise ValueError("query interval must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    out: List[QueryTuple] = []
    for step in range(count):
        t = t_start + step * interval_s
        x, y = trajectory(t)
        out.append(QueryTuple(t=t, x=x, y=y))
    return out


def _legs(
    waypoints: Sequence[Tuple[float, float]], t_start: float, t_end: float
) -> Tuple[List[float], float]:
    """Validated leg lengths of a waypoint route, and their running sum.

    ``t_end`` must lie after ``t_start`` as floats (``t_start +
    duration`` rounds back to ``t_start`` for a large enough start), and
    every leg and the total must be finite: waypoints far enough apart
    overflow ``hypot`` to inf, and interpolating along an infinite leg
    yields NaN positions.
    """
    if len(waypoints) < 2:
        raise ValueError("a trajectory needs at least two waypoints")
    if t_end <= t_start:
        raise ValueError("t_end must be after t_start")
    legs = []
    total = 0.0
    for (x1, y1), (x2, y2) in zip(waypoints, waypoints[1:]):
        d = math.hypot(x2 - x1, y2 - y1)
        legs.append(d)
        total += d
    if not math.isfinite(total):
        raise ValueError("route legs must have finite lengths")
    return legs, total


def waypoint_trajectory(
    waypoints: Sequence[Tuple[float, float]],
    t_start: float,
    t_end: float,
) -> Trajectory:
    """Constant-speed trajectory through ``waypoints`` between two times.

    Before ``t_start`` the object sits at the first waypoint; after
    ``t_end`` at the last.  This is how the web interface's continuous
    query mode ("users select a set of points that constitute the route")
    turns clicked points into a moving object.
    """
    legs, total = _legs(waypoints, t_start, t_end)

    def position(t: float) -> Tuple[float, float]:
        if t <= t_start:
            return waypoints[0]
        if t >= t_end:
            return waypoints[-1]
        frac = (t - t_start) / (t_end - t_start)
        target = frac * total
        for (x1, y1), (x2, y2), leg in zip(waypoints, waypoints[1:], legs):
            if leg > 0.0 and target <= leg:
                f = target / leg
                return x1 + f * (x2 - x1), y1 + f * (y2 - y1)
            target -= leg  # zero-length legs are skipped unchanged
        return waypoints[-1]

    return position


def uniform_route_batch(
    waypoints: Sequence[Tuple[float, float]],
    t_start: float,
    t_end: float,
    interval_s: float,
    count: int,
) -> QueryBatch:
    """``uniform_query_tuples(waypoint_trajectory(waypoints, t_start,
    t_end), t_start, interval_s, count)`` as one columnar batch.

    Bit-identical to the scalar pair, which stays the oracle: every
    update goes through the same float operations in the same order
    (``t_start + step * interval_s``; ``target = frac * total``; per
    leg ``f = target / leg``, ``x1 + f * (x2 - x1)``, else ``target -=
    leg``), evaluated per leg over all updates at once.
    """
    legs, total = _legs(waypoints, t_start, t_end)
    if interval_s <= 0:
        raise ValueError("query interval must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    t = t_start + np.arange(count) * interval_s
    target = (t - t_start) / (t_end - t_start) * total
    # Updates no leg claims end at the last waypoint, as do those at or
    # after t_end; those at or before t_start sit at the first.
    x = np.full(count, waypoints[-1][0], dtype=np.float64)
    y = np.full(count, waypoints[-1][1], dtype=np.float64)
    early = t <= t_start
    moving = ~early & (t < t_end)
    for (x1, y1), (x2, y2), leg in zip(waypoints, waypoints[1:], legs):
        if leg > 0.0:
            here = moving & (target <= leg)
            f = target[here] / leg
            x[here] = x1 + f * (x2 - x1)
            y[here] = y1 + f * (y2 - y1)
            moving &= ~here
        target = target - leg  # zero-length legs are skipped unchanged
    x[early], y[early] = waypoints[0]
    return QueryBatch(t, x, y)


@dataclass
class ContinuousQueryDriver:
    """Runs a continuous query against a point-query processor."""

    processor: PointQueryProcessor

    def run(self, queries: Sequence[QueryTuple]) -> List[QueryResult]:
        """Process every query tuple in order."""
        return [self.processor.process(q) for q in queries]

    def run_trajectory(
        self,
        trajectory: Trajectory,
        t_start: float,
        interval_s: float,
        count: int,
    ) -> List[QueryResult]:
        """Generate the uniform stream and process it."""
        queries = uniform_query_tuples(trajectory, t_start, interval_s, count)
        return self.run(queries)
