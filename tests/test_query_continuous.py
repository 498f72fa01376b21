"""Tests for repro.query.continuous."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.base import QueryBatch
from repro.query.continuous import (
    uniform_query_tuples,
    uniform_route_batch,
    waypoint_trajectory,
)


class TestUniformQueryTuples:
    def test_uniform_interval(self):
        def traj(t):
            return (t, 2 * t)

        qs = uniform_query_tuples(traj, 100.0, 60.0, 5)
        assert len(qs) == 5
        gaps = {qs[i + 1].t - qs[i].t for i in range(4)}
        assert gaps == {60.0}  # |t_{l+1} - t_l| is always the same

    def test_positions_follow_trajectory(self):
        def traj(t):
            return (t, -t)

        qs = uniform_query_tuples(traj, 0.0, 10.0, 3)
        assert qs[2].x == 20.0
        assert qs[2].y == -20.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            uniform_query_tuples(lambda t: (0, 0), 0, 0.0, 5)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            uniform_query_tuples(lambda t: (0, 0), 0, 1.0, 0)


class TestWaypointTrajectory:
    def test_endpoints(self):
        traj = waypoint_trajectory([(0, 0), (100, 0)], 0.0, 100.0)
        assert traj(-5.0) == (0, 0)
        assert traj(0.0) == (0, 0)
        assert traj(100.0) == (100, 0)
        assert traj(150.0) == (100, 0)

    def test_constant_speed_midpoint(self):
        traj = waypoint_trajectory([(0, 0), (100, 0)], 0.0, 100.0)
        x, y = traj(50.0)
        assert x == pytest.approx(50.0)

    def test_multi_leg(self):
        traj = waypoint_trajectory([(0, 0), (100, 0), (100, 100)], 0.0, 200.0)
        x, y = traj(150.0)  # three quarters of the 200 m path = (100, 50)
        assert (x, y) == pytest.approx((100.0, 50.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            waypoint_trajectory([(0, 0)], 0, 10)
        with pytest.raises(ValueError):
            waypoint_trajectory([(0, 0), (1, 1)], 10, 10)

    def test_zero_length_leg(self):
        traj = waypoint_trajectory([(0, 0), (0, 0), (100, 0)], 0.0, 100.0)
        x, y = traj(50.0)
        assert x == pytest.approx(50.0)


_COORD = st.one_of(
    st.sampled_from([0.0, 1.0, -250.5, 1e-9, 3000.0]),  # duplicates happen
    st.floats(-5e4, 5e4, allow_nan=False),
)


class TestUniformRouteBatch:
    """The columnar route sampler against the scalar pair, byte for byte."""

    @staticmethod
    def scalar(waypoints, t_start, t_end, interval_s, count) -> QueryBatch:
        trajectory = waypoint_trajectory(waypoints, t_start, t_end)
        return QueryBatch.from_queries(
            uniform_query_tuples(trajectory, t_start, interval_s, count)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        waypoints=st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=7),
        t_start=st.floats(-1e6, 1e9, allow_nan=False),
        duration_s=st.floats(1e-3, 1e6, allow_nan=False),
        # Intervals past duration/(count-1) put updates beyond t_end.
        stretch=st.sampled_from([0.25, 1.0, 1.0, 1.7, 40.0]),
        count=st.integers(1, 90),
    )
    def test_bytes_equal_the_scalar_stream(
        self, waypoints, t_start, duration_s, stretch, count
    ):
        t_end = t_start + duration_s
        if t_end <= t_start:  # duration lost to rounding: both must refuse
            with pytest.raises(ValueError):
                uniform_route_batch(waypoints, t_start, t_end, 1.0, count)
            return
        interval_s = stretch * duration_s / max(count - 1, 1)
        got = uniform_route_batch(waypoints, t_start, t_end, interval_s, count)
        want = self.scalar(waypoints, t_start, t_end, interval_s, count)
        for column in ("t", "x", "y"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    def test_all_identical_waypoints_stay_put(self):
        got = uniform_route_batch([(5.0, 7.0)] * 3, 0.0, 100.0, 10.0, 12)
        want = self.scalar([(5.0, 7.0)] * 3, 0.0, 100.0, 10.0, 12)
        assert got.x.tobytes() == want.x.tobytes() and set(got.x) == {5.0}
        assert got.y.tobytes() == want.y.tobytes() and set(got.y) == {7.0}

    def test_single_update_sits_at_the_first_waypoint(self):
        route = [(3.0, 4.0), (10.0, 0.0), (10.0, 10.0)]
        got = uniform_route_batch(route, 50.0, 100.0, 10.0, 1)
        assert (got.t.tolist(), got.x.tolist(), got.y.tolist()) == ([50.0], [3.0], [4.0])

    def test_same_errors_as_the_scalar_pair(self):
        route = [(0.0, 0.0), (1.0, 1.0)]
        with pytest.raises(ValueError, match="at least two waypoints"):
            uniform_route_batch(route[:1], 0.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="t_end must be after t_start"):
            uniform_route_batch(route, 1.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="interval must be positive"):
            uniform_route_batch(route, 0.0, 1.0, 0.0, 2)
        with pytest.raises(ValueError, match="count must be at least 1"):
            uniform_route_batch(route, 0.0, 1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "args",
        [
            ([(0.0, 0.0), (3.0, 4.0)], 0.0, 10.0, 2.0, 6),
            ([(0, 0), (3, 4), (3, 4)], 0, 10, 2, 6),  # ints, as a caller may pass them
        ],
    )
    def test_columns_are_what_the_constructor_makes(self, args):
        """The batch skips the constructor's validation, so it is built
        to pass it: read-only one-dimensional float64 columns of one
        length, the scalar pair's bytes."""
        got = uniform_route_batch(*args)
        want = self.scalar(*args)
        for column in ("t", "x", "y"):
            a = getattr(got, column)
            assert a.dtype == np.float64 and a.ndim == 1 and len(a) == args[-1]
            assert not a.flags.writeable
            assert a.tobytes() == getattr(want, column).tobytes()
