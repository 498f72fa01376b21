"""Tests for repro.geo.region."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import BoundingBox
from repro.geo.region import RefinedRegionGrid, Region, RegionGrid


class TestRegion:
    def test_contains(self):
        region = Region("r", BoundingBox(0, 0, 10, 10))
        assert region.contains(5, 5)
        assert not region.contains(11, 5)


class TestRegionGrid:
    BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionGrid(self.BOUNDS, nx=0, ny=1)
        with pytest.raises(ValueError):
            RegionGrid(BoundingBox(0.0, 0.0, 0.0, 4000.0), nx=1, ny=1)
        with pytest.raises(ValueError):
            RegionGrid.for_shard_count(self.BOUNDS, 0)

    def test_for_shard_count_factorises_squarely(self):
        grid = RegionGrid.for_shard_count(self.BOUNDS, 4)
        assert (grid.nx, grid.ny) == (2, 2)
        grid = RegionGrid.for_shard_count(self.BOUNDS, 6)
        assert (grid.nx, grid.ny) == (3, 2)  # wider box -> wider grid
        tall = BoundingBox(0.0, 0.0, 4000.0, 6000.0)
        assert (RegionGrid.for_shard_count(tall, 6).nx,
                RegionGrid.for_shard_count(tall, 6).ny) == (2, 3)
        prime = RegionGrid.for_shard_count(self.BOUNDS, 5)
        assert prime.n_regions == 5 and prime.ny == 1

    def test_regions_tile_the_bounds(self):
        grid = RegionGrid(self.BOUNDS, nx=3, ny=2)
        assert grid.n_regions == 6
        total_area = sum(grid.region(k).bounds.area for k in range(6))
        assert total_area == pytest.approx(self.BOUNDS.area)
        with pytest.raises(ValueError):
            grid.region(6)

    def test_ownership_is_total_and_clamped(self):
        grid = RegionGrid(self.BOUNDS, nx=2, ny=2)
        # Interior points land in their cell.
        assert grid.shard_of(100.0, 100.0) == 0
        assert grid.shard_of(5900.0, 100.0) == 1
        assert grid.shard_of(100.0, 3900.0) == 2
        assert grid.shard_of(5900.0, 3900.0) == 3
        # Out-of-bounds points are owned by the nearest edge cell.
        assert grid.shard_of(-1e6, -1e6) == 0
        assert grid.shard_of(1e6, 1e6) == 3
        assert grid.shard_of(3000.0, -500.0) in (0, 1)

    def test_scalar_and_vector_ownership_agree(self):
        grid = RegionGrid(self.BOUNDS, nx=3, ny=2)
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2000.0, 8000.0, 200)
        ys = rng.uniform(-2000.0, 6000.0, 200)
        vector = grid.shards_of(xs, ys)
        for x, y, s in zip(xs, ys, vector):
            assert grid.shard_of(float(x), float(y)) == int(s)

    @given(
        x=st.floats(min_value=-20_000, max_value=20_000, allow_nan=False),
        y=st.floats(min_value=-20_000, max_value=20_000, allow_nan=False),
        r=st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_disk_scatter_set_covers_all_possible_owners(self, x, y, r, seed):
        """Any point within the disk is owned by a cell in the scatter
        set — the correctness contract of disk-range pruning."""
        grid = RegionGrid(self.BOUNDS, nx=3, ny=2)
        scatter = set(grid.shards_overlapping_disk(x, y, r))
        assert scatter  # never empty: ownership is total
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, 2.0 * np.pi, 64)
        radii = r * np.sqrt(rng.uniform(0.0, 1.0, 64))
        px = x + radii * np.cos(angles)
        py = y + radii * np.sin(angles)
        owners = set(int(s) for s in grid.shards_of(px, py))
        assert owners <= scatter

    def test_disk_ranges_reject_negative_radius(self):
        grid = RegionGrid(self.BOUNDS, nx=2, ny=2)
        with pytest.raises(ValueError):
            grid.disk_cell_ranges(np.array([0.0]), np.array([0.0]), -1.0)


# -- property suites: factorisation and degenerate strip grids --------------
#
# ``for_shard_count`` backs every CLI/benchmark "give me n shards" entry
# point, and 1xn / nx1 strips are what prime counts degrade to — their
# edge cells own unbounded slabs on *three* sides, the adversarial case
# for the scatter-mask geometry.

_PROP = settings(max_examples=60, deadline=None)

_shard_counts = st.integers(min_value=1, max_value=420)
_boxes = st.tuples(
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=1.0, max_value=2e4),
    st.floats(min_value=1.0, max_value=2e4),
).map(lambda t: BoundingBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))


class TestForShardCountProperties:
    @given(n=_shard_counts, box=_boxes)
    @_PROP
    def test_factorisation_is_exact_and_most_square(self, n, box):
        grid = RegionGrid.for_shard_count(box, n)
        assert grid.nx * grid.ny == n
        # The smaller factor is the largest divisor not above sqrt(n) —
        # no factor pair of n is closer to square.
        small = min(grid.nx, grid.ny)
        best = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
        assert small == best

    @given(n=_shard_counts, box=_boxes)
    @_PROP
    def test_aspect_follows_the_bounds(self, n, box):
        grid = RegionGrid.for_shard_count(box, n)
        if box.width >= box.height:
            assert grid.nx >= grid.ny
        else:
            assert grid.ny >= grid.nx

    @given(n=_shard_counts.filter(_is_prime), box=_boxes)
    @_PROP
    def test_prime_count_degrades_to_a_strip(self, n, box):
        grid = RegionGrid.for_shard_count(box, n)
        assert sorted((grid.nx, grid.ny)) == [1, n]


class TestDegenerateStripScatterMask:
    @given(
        n=st.integers(min_value=1, max_value=13),
        tall=st.booleans(),
        r=st.floats(min_value=0.0, max_value=12_000.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @_PROP
    def test_strip_masks_are_superset_safe_across_edge_slabs(
        self, n, tall, r, seed
    ):
        """On a 1xn / nx1 strip, any tuple inside a query's disk is
        owned by a masked cell — including tuples and query centres deep
        in the unbounded edge slabs outside the bounding box."""
        box = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
        grid = (
            RegionGrid(box, nx=1, ny=n) if tall else RegionGrid(box, nx=n, ny=1)
        )
        rng = np.random.default_rng(seed)
        # Both populations straddle the box and its far outside.
        tx = rng.uniform(-15_000.0, 21_000.0, 256)
        ty = rng.uniform(-15_000.0, 19_000.0, 256)
        qx = rng.uniform(-15_000.0, 21_000.0, 24)
        qy = rng.uniform(-15_000.0, 19_000.0, 24)
        mask = grid.disks_shard_mask(qx, qy, r)
        assert mask.shape == (24, n)
        assert mask.any(axis=1).all()  # ownership is total
        owners = grid.shards_of(tx, ty)
        for q in range(len(qx)):
            inside = (tx - qx[q]) ** 2 + (ty - qy[q]) ** 2 <= r * r
            hit_owners = set(int(s) for s in np.unique(owners[inside]))
            assert hit_owners <= set(np.flatnonzero(mask[q]))

    @given(
        n=st.integers(min_value=1, max_value=13),
        tall=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @_PROP
    def test_zero_radius_mask_is_exactly_the_owner(self, n, tall, seed):
        box = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
        grid = (
            RegionGrid(box, nx=1, ny=n) if tall else RegionGrid(box, nx=n, ny=1)
        )
        rng = np.random.default_rng(seed)
        qx = rng.uniform(-15_000.0, 21_000.0, 64)
        qy = rng.uniform(-15_000.0, 19_000.0, 64)
        mask = grid.disks_shard_mask(qx, qy, 0.0)
        owners = grid.shards_of(qx, qy)
        assert mask.sum(axis=1).tolist() == [1] * 64
        assert np.array_equal(np.argmax(mask, axis=1), owners)


# -- scalar ownership == vector ownership, for every finite float -----------
#
# The cached point lane (``ShardedQueryEngine.cached_point``) routes with
# ``shard_of`` on Python floats while plans route with ``shards_of`` on
# arrays; a cover cached by one is served by the other, so the pair must
# name the same shard for every coordinate a request can carry.


def _edge_floats(lo: float, hi: float, n: int):
    """Every cell edge of an ``n``-cell axis (and of its half-cell
    lattice), with the float on either side of it."""
    edges = [lo + (hi - lo) * k / (2 * n) for k in range(2 * n + 1)]
    return [
        v
        for e in edges
        for v in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))
    ]


_OWNER_BOUNDS = BoundingBox(-500.0, 250.0, 6000.0, 4000.0)
_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
    1.7976931348623157e308, -1.7976931348623157e308,
]  # fmt: skip
_coordinate = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2000.0, max_value=8000.0),
    st.sampled_from(_SPECIAL),
    st.sampled_from(_edge_floats(_OWNER_BOUNDS.min_x, _OWNER_BOUNDS.max_x, 3)),
    st.sampled_from(_edge_floats(_OWNER_BOUNDS.min_y, _OWNER_BOUNDS.max_y, 2)),
)


def _owner_grids():
    """A static grid, its all-unsplit refinement, and split / re-merged
    refinements with retired holes and reused slot ids."""
    base = RegionGrid(_OWNER_BOUNDS, nx=3, ny=2)
    refined = RefinedRegionGrid.refine(base)
    split = refined.split_cell(4).split_cell(0, 2, 1).split_cell(5, 1, 2)
    merged = split.merge_cell(4).split_cell(2)
    return {
        "static": base,
        "one-cell": RegionGrid(_OWNER_BOUNDS, nx=1, ny=1),
        "refined": refined,
        "split": split,
        "merged": merged,
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestScalarOwnershipEqualsVector:
    GRIDS = _owner_grids()

    @pytest.mark.parametrize("layout", sorted(GRIDS))
    @settings(max_examples=300, deadline=None)
    @given(x=_coordinate, y=_coordinate)
    def test_shard_of_equals_shards_of(self, layout, x, y):
        grid = self.GRIDS[layout]
        s = grid.shard_of(x, y)
        assert type(s) is int
        assert s == int(grid.shards_of(np.array([x]), np.array([y]))[0])

    @pytest.mark.parametrize("layout", sorted(GRIDS))
    def test_every_edge_and_corner(self, layout):
        grid = self.GRIDS[layout]
        xs = _edge_floats(_OWNER_BOUNDS.min_x, _OWNER_BOUNDS.max_x, 3) + _SPECIAL
        ys = _edge_floats(_OWNER_BOUNDS.min_y, _OWNER_BOUNDS.max_y, 2) + _SPECIAL
        gx, gy = (a.ravel() for a in np.meshgrid(np.array(xs), np.array(ys)))
        vector = grid.shards_of(gx, gy).tolist()
        assert [grid.shard_of(float(x), float(y)) for x, y in zip(gx, gy)] == vector

    def test_far_finite_coordinates_land_in_the_edge_cells(self):
        """The defect: ``floor(f * n)`` was cast to int64 before it was
        clipped, so 1e300 — finite, accepted by the request validation
        and the ingest contract — was an undefined cast (a RuntimeWarning,
        and the *west* column on x86)."""
        grid = RegionGrid(BoundingBox(0.0, 0.0, 6000.0, 4000.0), nx=2, ny=2)
        far = np.array([1e300, 1e300, -1e300, -1e300])
        ys = np.array([4000.0, 0.0, 4000.0, 0.0])
        assert grid.shards_of(far, ys).tolist() == [3, 1, 2, 0]
        assert grid.shards_of(ys, far).tolist() == [3, 2, 1, 0]
        refined = RefinedRegionGrid.refine(grid).split_cell(3)
        assert refined.shards_of(far, ys).tolist() == [
            refined.shard_of(float(x), float(y)) for x, y in zip(far, ys)
        ]
        # The scatter geometry inherits the clamp: a disk around a far
        # point reaches the east column only.
        mask = grid.disks_shard_mask(np.array([1e300]), np.array([100.0]), 1000.0)
        assert mask.tolist() == [[False, True, False, False]]
        assert refined.disks_shard_mask(
            np.array([1e300]), np.array([100.0]), 1000.0
        )[0].tolist()[:2] == [False, True]
