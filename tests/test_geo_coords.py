"""Tests for repro.geo.coords."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import (
    BoundingBox,
    LocalProjection,
    bbox_of_xy,
    euclidean,
    haversine_m,
)

LAUSANNE_LAT, LAUSANNE_LON = 46.5197, 6.6323


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(LAUSANNE_LAT, LAUSANNE_LON, LAUSANNE_LAT, LAUSANNE_LON) == 0.0

    def test_known_distance_lausanne_geneva(self):
        # Lausanne -> Geneva is ~50 km great-circle.
        d = haversine_m(46.5197, 6.6323, 46.2044, 6.1432)
        assert 49_000 < d < 53_000

    def test_symmetry(self):
        a = haversine_m(46.5, 6.6, 46.6, 6.7)
        b = haversine_m(46.6, 6.7, 46.5, 6.6)
        assert a == pytest.approx(b)

    def test_one_degree_latitude(self):
        d = haversine_m(46.0, 6.6, 47.0, 6.6)
        assert d == pytest.approx(111_195, rel=0.01)


class TestEuclidean:
    def test_pythagoras(self):
        assert euclidean(0, 0, 3, 4) == pytest.approx(5.0)

    def test_zero(self):
        assert euclidean(1.5, -2.5, 1.5, -2.5) == 0.0


class TestLocalProjection:
    def setup_method(self):
        self.proj = LocalProjection(LAUSANNE_LAT, LAUSANNE_LON)

    def test_origin_maps_to_zero(self):
        x, y = self.proj.to_local(LAUSANNE_LAT, LAUSANNE_LON)
        assert x == pytest.approx(0.0)
        assert y == pytest.approx(0.0)

    def test_round_trip(self):
        lat, lon = self.proj.to_wgs84(1500.0, -800.0)
        x, y = self.proj.to_local(lat, lon)
        assert x == pytest.approx(1500.0, abs=1e-6)
        assert y == pytest.approx(-800.0, abs=1e-6)

    def test_local_distances_match_haversine_at_city_scale(self):
        lat2, lon2 = self.proj.to_wgs84(3000.0, 2000.0)
        approx = math.hypot(3000.0, 2000.0)
        exact = haversine_m(LAUSANNE_LAT, LAUSANNE_LON, lat2, lon2)
        assert exact == pytest.approx(approx, rel=0.001)

    def test_north_is_positive_y(self):
        x, y = self.proj.to_local(LAUSANNE_LAT + 0.01, LAUSANNE_LON)
        assert y > 0
        assert x == pytest.approx(0.0, abs=1e-9)


class TestBoundingBox:
    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 0, 10)

    def test_from_points(self):
        box = BoundingBox.from_points([(1, 2), (-1, 5), (3, 0)])
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (-1, 0, 3, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([])

    def test_dimensions(self):
        box = BoundingBox(0, 0, 4, 3)
        assert box.width == 4
        assert box.height == 3
        assert box.area == 12
        assert box.center == (2.0, 1.5)

    def test_contains_point_boundary(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.contains_point(0, 0)
        assert box.contains_point(1, 1)
        assert not box.contains_point(1.0001, 0.5)

    def test_intersects(self):
        a = BoundingBox(0, 0, 2, 2)
        assert a.intersects(BoundingBox(1, 1, 3, 3))
        assert a.intersects(BoundingBox(2, 2, 4, 4))  # touching counts
        assert not a.intersects(BoundingBox(2.1, 2.1, 3, 3))

    def test_union(self):
        a = BoundingBox(0, 0, 1, 1).union(BoundingBox(2, -1, 3, 0.5))
        assert (a.min_x, a.min_y, a.max_x, a.max_y) == (0, -1, 3, 1)

    def test_expand(self):
        box = BoundingBox(0, 0, 1, 1).expand(0.5)
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (-0.5, -0.5, 1.5, 1.5)

    def test_expand_negative_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, 1).expand(-1)

    def test_min_distance_inside_is_zero(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.min_distance_to(1, 1) == 0.0

    def test_min_distance_corner(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.min_distance_to(4, 5) == pytest.approx(5.0)

    def test_intersects_circle(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.intersects_circle(2, 0.5, 1.0)
        assert not box.intersects_circle(2.5, 0.5, 1.0)

    def test_grid_points_count_and_bounds(self):
        box = BoundingBox(0, 0, 10, 20)
        pts = list(box.grid_points(3, 5))
        assert len(pts) == 15
        assert all(box.contains_point(x, y) for x, y in pts)
        assert (0.0, 0.0) in pts and (10.0, 20.0) in pts

    def test_grid_points_single(self):
        box = BoundingBox(0, 0, 10, 20)
        assert list(box.grid_points(1, 1)) == [(5.0, 10.0)]

    def test_grid_points_invalid(self):
        with pytest.raises(ValueError):
            list(BoundingBox(0, 0, 1, 1).grid_points(0, 5))


class TestBboxOfXY:
    def test_basic(self):
        box = bbox_of_xy([1, 2, 3], [4, 5, 6])
        assert (box.min_x, box.max_x, box.min_y, box.max_y) == (1, 3, 4, 6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bbox_of_xy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            bbox_of_xy([], [])


# Millimetre coordinates in a +-10 km frame, as in the index properties:
# the domain of projected GPS positions, without denormal pathologies.
coord = st.integers(min_value=-10_000_000, max_value=10_000_000).map(
    lambda mm: mm / 1000.0
)
frac = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def boxes(draw):
    x1, x2, y1, y2 = draw(coord), draw(coord), draw(coord), draw(coord)
    return BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


def _inside(box, fx, fy):
    return box.min_x + fx * box.width, box.min_y + fy * box.height


class TestBoundingBoxProperties:
    """The disk-pruning tests rest on these: a box is skipped only when
    no point of it can be within the radius."""

    @settings(max_examples=100, deadline=None)
    @given(box=boxes(), qx=coord, qy=coord, fx=frac, fy=frac)
    def test_min_distance_is_a_lower_bound_attained_by_the_box(
        self, box, qx, qy, fx, fy
    ):
        px, py = _inside(box, fx, fy)
        d = box.min_distance_to(qx, qy)
        if box.contains_point(px, py):  # not when the far edge rounds past
            assert euclidean(qx, qy, px, py) >= d
        cx = min(max(qx, box.min_x), box.max_x)
        cy = min(max(qy, box.min_y), box.max_y)
        assert box.contains_point(cx, cy)
        assert euclidean(qx, qy, cx, cy) == d
        assert (d == 0.0) == box.contains_point(qx, qy)
        assert box.intersects_circle(qx, qy, d)

    @settings(max_examples=100, deadline=None)
    @given(a=boxes(), b=boxes())
    def test_union_holds_both_and_intersects_is_symmetric(self, a, b):
        u = a.union(b)
        for box in (a, b):
            assert u.contains_point(box.min_x, box.min_y)
            assert u.contains_point(box.max_x, box.max_y)
            assert u.intersects(box)
        assert a.intersects(b) == b.intersects(a)
        overlap = (
            max(a.min_x, b.min_x) <= min(a.max_x, b.max_x)
            and max(a.min_y, b.min_y) <= min(a.max_y, b.max_y)
        )
        assert a.intersects(b) == overlap

    @settings(max_examples=100, deadline=None)
    @given(
        box=boxes(),
        margin=st.integers(min_value=0, max_value=1_000_000).map(lambda mm: mm / 1000.0),
        fx=frac,
        fy=frac,
        ox=st.floats(min_value=-1.0, max_value=1.0),
        oy=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_expand_covers_every_point_within_the_margin(
        self, box, margin, fx, fy, ox, oy
    ):
        px, py = _inside(box, fx, fy)
        grown = box.expand(margin)
        assert grown.contains_point(
            min(max(px + ox * margin, grown.min_x), grown.max_x),
            min(max(py + oy * margin, grown.min_y), grown.max_y),
        )
        assert grown.contains_point(box.min_x - margin, box.max_y + margin)
        assert grown.width == pytest.approx(box.width + 2 * margin)

    @settings(max_examples=100, deadline=None)
    @given(
        box=boxes(),
        nx=st.integers(min_value=1, max_value=9),
        ny=st.integers(min_value=1, max_value=9),
    )
    def test_grid_points_are_a_lattice_inside_the_box(self, box, nx, ny):
        pts = list(box.grid_points(nx, ny))
        assert len(pts) == nx * ny
        # The far edge is ``min + 1.0 * width``, which may round one ulp
        # past ``max``; nothing downstream needs it exactly on the edge.
        slack = box.expand(1e-9)
        assert all(slack.contains_point(x, y) for x, y in pts)
        assert len(set(pts)) == len(pts) or box.area == 0.0
        if nx > 1 and ny > 1:
            assert pts[0] == (box.min_x, box.min_y)
            assert pts[-1] == pytest.approx((box.max_x, box.max_y))
