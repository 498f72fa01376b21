"""The contract every spatial index shares, checked on all five at once.

Each index also has its own module of structural tests; this one pins
what the query processors rely on whatever index they were given: the
``SpatialIndex`` protocol, the input checks, boundary inclusion, and
answers equal to the brute-force oracle.
"""

import math

import numpy as np
import pytest

from repro.index import SpatialIndex, brute_force_radius
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTree
from repro.index.rtree import RTree
from repro.index.strtree import STRTree
from repro.index.vptree import VPTree

INDEXES = [GridIndex, KDTree, RTree, STRTree, VPTree]

# Two points at the origin and two at (3, 4): exactly 5 m apart, so a
# radius of 5 puts each pair on the other's boundary with no rounding.
XS = [0.0, 3.0, 3.0, 0.0]
YS = [0.0, 4.0, 4.0, 0.0]


@pytest.fixture(params=INDEXES, ids=lambda cls: cls.__name__)
def index_cls(request):
    return request.param


def test_satisfies_the_protocol_and_counts_its_points(index_cls):
    index = index_cls(XS, YS)
    assert isinstance(index, SpatialIndex)
    assert len(index) == 4


def test_an_empty_index_answers_nothing(index_cls):
    index = index_cls([], [])
    assert len(index) == 0
    assert list(index.query_radius(0.0, 0.0, 1000.0)) == []


def test_mismatched_columns_are_refused(index_cls):
    with pytest.raises(ValueError, match="same length"):
        index_cls([0.0, 1.0], [0.0])


def test_a_negative_radius_is_refused(index_cls):
    with pytest.raises(ValueError, match="non-negative"):
        index_cls(XS, YS).query_radius(0.0, 0.0, -1.0)


def test_points_on_the_boundary_are_included(index_cls):
    index = index_cls(XS, YS)
    assert sorted(index.query_radius(0.0, 0.0, 5.0)) == [0, 1, 2, 3]
    assert sorted(index.query_radius(3.0, 4.0, 5.0)) == [0, 1, 2, 3]


def test_radius_zero_finds_every_duplicate_at_the_query_point(index_cls):
    index = index_cls(XS, YS)
    assert sorted(index.query_radius(0.0, 0.0, 0.0)) == [0, 3]
    assert sorted(index.query_radius(3.0, 4.0, 0.0)) == [1, 2]
    assert list(index.query_radius(1.0, 1.0, 0.0)) == []


@pytest.mark.parametrize("radius", [0.5, 7.0, 20.0, 200.0])
def test_a_random_cloud_matches_the_oracle_without_repeats(index_cls, radius):
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.0, 100.0, 400)
    ys = rng.uniform(0.0, 100.0, 400)
    index = index_cls(xs, ys)
    for qx, qy in [(50.0, 50.0), (0.0, 0.0), (-30.0, 120.0)]:
        hits = list(index.query_radius(qx, qy, radius))
        assert len(hits) == len(set(hits))
        assert sorted(hits) == brute_force_radius(xs, ys, qx, qy, radius)


def test_brute_force_oracle_checks_its_own_radius():
    with pytest.raises(ValueError, match="non-negative"):
        brute_force_radius(XS, YS, 0.0, 0.0, -0.1)
    assert brute_force_radius(XS, YS, 0.0, 0.0, 5.0) == [0, 1, 2, 3]


@pytest.mark.parametrize("radius", [1e6])
def test_a_radius_far_wider_than_the_data_matches_the_oracle(index_cls, radius):
    rng = np.random.default_rng(12)
    xs = rng.uniform(-500.0, 500.0, 300)
    ys = rng.uniform(-500.0, 500.0, 300)
    index = index_cls(xs, ys)
    for qx, qy in [(0.0, 0.0), (2e6, 0.0), (-1e6 + 500.0, 9e5)]:
        hits = list(index.query_radius(qx, qy, radius))
        assert len(hits) == len(set(hits))
        assert sorted(hits) == brute_force_radius(xs, ys, qx, qy, radius)
    assert list(index_cls([], []).query_radius(0.0, 0.0, radius)) == []


class _CountingCells(dict):
    """A grid's bucket dict that counts what a query touches: every
    bucket looked up and every key walked."""

    touched = 0

    def get(self, key, default=None):
        self.touched += 1
        return super().get(key, default)

    def __iter__(self):
        for key in super().__iter__():
            self.touched += 1
            yield key


@pytest.mark.parametrize("radius", [0.0, 300.0, 1e4, 1e6])
@pytest.mark.parametrize("n_points", [0, 1, 50])
def test_grid_probes_are_bounded_by_its_occupied_cells(radius, n_points):
    # The disk's bounding square at r = 1e6 m holds 6.4e7 cells of 250 m;
    # probing them all took seconds on an empty index.  Whatever the
    # radius, a query touches at most each occupied cell twice (walked,
    # then looked up), and never more cells than the square holds.
    rng = np.random.default_rng(n_points)
    xs = rng.uniform(0.0, 5000.0, n_points)
    ys = rng.uniform(0.0, 5000.0, n_points)
    index = GridIndex(xs, ys)
    index._cells = cells = _CountingCells(index._cells)
    hits = index.query_radius(2500.0, 2500.0, radius)
    assert sorted(hits) == brute_force_radius(xs, ys, 2500.0, 2500.0, radius)
    side = 2 * math.floor(radius / 250.0) + 3
    assert cells.touched <= min(2 * index.cell_count, side * side)
