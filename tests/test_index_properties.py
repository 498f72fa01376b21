"""Property-based tests: every index agrees with the brute-force oracle.

This is the core correctness invariant of the metric-space substrate:
whatever the point distribution, a radius query returns exactly the
points within the radius.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.base import brute_force_radius
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTree
from repro.index.rtree import RTree
from repro.index.strtree import STRTree
from repro.index.vptree import VPTree

# Millimetre-resolution coordinates in a +-10 km frame: the realistic
# domain of projected GPS positions.  Raw float strategies generate
# denormals (~1e-160) whose squared distances underflow to zero, an
# arithmetic pathology no physical dataset exhibits and that the squared-
# distance convention shared by all methods does not try to defend against.
coord = st.integers(min_value=-10_000_000, max_value=10_000_000).map(
    lambda mm: mm / 1000.0
)
points_strategy = st.lists(st.tuples(coord, coord), min_size=0, max_size=80)
query_strategy = st.tuples(
    coord,
    coord,
    st.integers(min_value=0, max_value=5_000_000).map(lambda mm: mm / 1000.0),
)


def _split(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return xs, ys


@settings(max_examples=80, deadline=None)
@given(points=points_strategy, query=query_strategy)
def test_rtree_matches_oracle(points, query):
    xs, ys = _split(points)
    qx, qy, r = query
    assert sorted(RTree(xs, ys).query_radius(qx, qy, r)) == brute_force_radius(
        xs, ys, qx, qy, r
    )


@settings(max_examples=80, deadline=None)
@given(points=points_strategy, query=query_strategy)
def test_vptree_matches_oracle(points, query):
    xs, ys = _split(points)
    qx, qy, r = query
    assert sorted(VPTree(xs, ys).query_radius(qx, qy, r)) == brute_force_radius(
        xs, ys, qx, qy, r
    )


@settings(max_examples=80, deadline=None)
@given(
    points=points_strategy,
    query=query_strategy,
    leaf=st.integers(min_value=2, max_value=16),
)
def test_strtree_matches_oracle(points, query, leaf):
    xs, ys = _split(points)
    qx, qy, r = query
    got = sorted(STRTree(xs, ys, leaf_capacity=leaf).query_radius(qx, qy, r))
    assert got == brute_force_radius(xs, ys, qx, qy, r)


@settings(max_examples=80, deadline=None)
@given(points=points_strategy, query=query_strategy)
def test_kdtree_matches_oracle(points, query):
    xs, ys = _split(points)
    qx, qy, r = query
    assert sorted(KDTree(xs, ys).query_radius(qx, qy, r)) == brute_force_radius(
        xs, ys, qx, qy, r
    )


@settings(max_examples=80, deadline=None)
@given(
    points=points_strategy,
    query=query_strategy,
    cell=st.floats(min_value=10.0, max_value=2_000.0),
)
def test_grid_matches_oracle(points, query, cell):
    xs, ys = _split(points)
    qx, qy, r = query
    got = sorted(GridIndex(xs, ys, cell_m=cell).query_radius(qx, qy, r))
    assert got == brute_force_radius(xs, ys, qx, qy, r)
