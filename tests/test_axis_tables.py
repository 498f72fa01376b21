"""The axis-table form of the exact gather's distance tile.

A row group whose queries share coordinates (a heatmap's grid) squares
each axis offset once per distinct coordinate
(``gather.axis_tables``) and builds each block's tile from two row
takes, an add and a compare (``gather.scan_axis_tile``).  The contract:
its hit indices are ``gather.scan_tile``'s, index for index, for any
rows and queries; a plan answers the same bytes whichever form its
groups take; and a plan whose queries are all distinct (a route) never
builds a table.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.pipeline import executor as pipeline_executor
from repro.query.pipeline import gather
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter

from test_exact_gather import (
    RADIUS,
    _covered,
    _heatmap_probes,
    build_router,
    fingerprint,
    forced_block,
    scenarios,
    whole_op_reference,
)


def axis_hits(wx, wy, qx, qy, radius_m):
    """``scan_axis_tile`` over tables of every distinct query coordinate."""
    ux, ix = np.unique(qx, return_inverse=True)
    uy, iy = np.unique(qy, return_inverse=True)
    with gather.workspace() as ws:
        dx2, dy2 = gather.axis_tables(ws, wx, wy, ux, uy)
        return gather.scan_axis_tile(ws, dx2, dy2, ix, iy, radius_m)


coords = st.floats(-5000.0, 5000.0, allow_nan=False, width=64)


@st.composite
def tiles(draw):
    """(row x, row y, query x, query y, radius): rows anywhere (negative
    coordinates included), queries drawn from a few distinct values per
    axis — a grid, or an irregular set with repeats — some of them
    exactly one radius from a row."""
    n_rows = draw(st.integers(1, 60))
    wx = np.array(draw(st.lists(coords, min_size=n_rows, max_size=n_rows)))
    wy = np.array(draw(st.lists(coords, min_size=n_rows, max_size=n_rows)))
    radius = draw(st.sampled_from([0.0, 1.0, 250.0, 1000.0, 3000.0]))
    xs = draw(st.lists(coords, min_size=1, max_size=8))
    ys = draw(st.lists(coords, min_size=1, max_size=8))
    # Coordinates exactly one radius east of / north of a row: on the
    # boundary, where <= must hold in both forms.
    at = draw(st.integers(0, n_rows - 1))
    xs.append(float(wx[at] + radius))
    ys.append(float(wy[at] + radius))
    xs.append(float(wx[at]))
    ys.append(float(wy[at]))
    if draw(st.booleans()):  # a grid: every x with every y
        qx = np.repeat(xs, len(ys))
        qy = np.tile(ys, len(xs))
    else:  # irregular, repeats likely
        n_q = draw(st.integers(1, 40))
        qx = np.array(draw(st.lists(st.sampled_from(xs), min_size=n_q, max_size=n_q)))
        qy = np.array(draw(st.lists(st.sampled_from(ys), min_size=n_q, max_size=n_q)))
    order = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).permutation(len(qx))
    return wx, wy, qx[order], qy[order], radius


class TestAxisTileIsTheSixPassTile:
    @settings(max_examples=200, deadline=None)
    @given(tile=tiles())
    def test_index_for_index(self, tile):
        wx, wy, qx, qy, radius = tile
        expected = gather.scan_tile(wx, wy, qx, qy, radius).copy()
        np.testing.assert_array_equal(axis_hits(wx, wy, qx, qy, radius), expected)

    @settings(max_examples=100, deadline=None)
    @given(tile=tiles(), pick=st.integers(0, 2**31 - 1))
    def test_a_group_narrowed_to_its_own_coordinates(self, tile, pick):
        # group_axes keeps only the coordinates the group's queries use
        # and renumbers their codes; where it declines (tables not
        # smaller than the tile) the six-pass tile is what runs.
        wx, wy, qx, qy, radius = tile
        ux, ix = np.unique(qx, return_inverse=True)
        uy, iy = np.unique(qy, return_inverse=True)
        rng = np.random.default_rng(pick)
        positions = np.flatnonzero(rng.random(len(qx)) < 0.6)
        if not len(positions):
            positions = np.arange(len(qx))
        expected = gather.scan_tile(wx, wy, qx[positions], qy[positions], radius).copy()
        axes = gather.group_axes((ux, ix, uy, iy), positions)
        if axes is None:
            assert len(np.unique(qx[positions])) + len(np.unique(qy[positions])) >= len(
                positions
            )
            return
        gux, gix, guy, giy = axes
        assert len(gux) + len(guy) < len(positions)
        np.testing.assert_array_equal(gux[gix], qx[positions])
        np.testing.assert_array_equal(guy[giy], qy[positions])
        with gather.workspace() as ws:
            dx2, dy2 = gather.axis_tables(ws, wx, wy, gux, guy)
            got = gather.scan_axis_tile(ws, dx2, dy2, gix, giy, radius)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n_rows,n_queries", [(1, 1), (1, 9), (7, 1)])
    def test_one_row_or_one_query(self, n_rows, n_queries):
        rng = np.random.default_rng(n_rows * 10 + n_queries)
        wx, wy = rng.uniform(-100, 100, n_rows), rng.uniform(-100, 100, n_rows)
        qx = rng.choice([-50.0, 0.0, 50.0], n_queries)
        qy = rng.choice([-50.0, 50.0], n_queries)
        for radius in (0.0, 60.0, 500.0):
            np.testing.assert_array_equal(
                axis_hits(wx, wy, qx, qy, radius),
                gather.scan_tile(wx, wy, qx, qy, radius),
            )

    def test_signed_zeros_and_unanswerable_queries(self):
        # np.unique folds -0.0 into 0.0 and NaNs into one: the square
        # drops the sign, and NaN / inf offsets compare false either way.
        wx = np.array([-0.0, 0.0, 3.0, -3.0])
        wy = np.array([0.0, -0.0, 4.0, -4.0])
        qx = np.array([0.0, -0.0, np.nan, np.inf, -0.0, np.nan])
        qy = np.array([-0.0, 0.0, 1.0, 0.0, np.nan, np.nan])
        with np.errstate(invalid="ignore"):
            for radius in (0.0, 5.0):
                np.testing.assert_array_equal(
                    axis_hits(wx, wy, qx, qy, radius),
                    gather.scan_tile(wx, wy, qx, qy, radius),
                )


class TestPlanChoosesAxesFromItsQueries:
    def test_a_grid_factors_and_a_route_does_not(self):
        grid = QueryBatch.from_grid(0.0, -500.0, -300.0, 1000.0, 600.0, 40, 30)
        axes = gather.query_axes(grid.x, grid.y)
        assert axes is not None
        ux, ix, uy, iy = axes
        assert (len(ux), len(uy)) == (40, 30)
        np.testing.assert_array_equal(ux[ix], grid.x)
        np.testing.assert_array_equal(uy[iy], grid.y)
        rng = np.random.default_rng(3)
        route = rng.uniform(0, 1000, (2, 128))
        assert gather.query_axes(*route) is None
        assert gather.query_axes(np.zeros(1), np.zeros(1)) is None
        assert gather.query_axes(np.zeros(2), np.zeros(2)) is None  # 1 + 1 tables
        assert gather.query_axes(np.zeros(3), np.zeros(3)) is not None

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.lists(
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0])
            | st.floats(width=64),
            min_size=1,
            max_size=60,
        ),
        other=st.integers(0, 2**31 - 1),
    )
    def test_distinct_values_and_codes_are_np_uniques(self, q, other):
        # One argsort per axis stands in for np.unique(return_inverse):
        # the same values (NaNs as one; a zero's sign may differ, which
        # the square drops) and the same codes — duplicates, NaN, ±inf
        # and signed zeros included.
        q = np.array(q, dtype=np.float64)
        ux, ix = gather._unique_inverse(*gather._sorted_runs(q))
        want_u, want_i = np.unique(q, return_inverse=True)
        np.testing.assert_array_equal(ux, want_u)
        np.testing.assert_array_equal(ix, want_i)
        # And query_axes hands them out whenever its tables can pay.
        qy = np.random.default_rng(other).choice([1.0, 2.0], len(q))
        axes = gather.query_axes(q, qy)
        if axes is not None:
            for got, want in zip(axes, (want_u, want_i, *np.unique(qy, return_inverse=True))):
                np.testing.assert_array_equal(got, want)
        else:  # the gate counts each NaN x apart; the tables count them as one
            nan = np.isnan(q)
            apart = len(np.unique(q[~nan])) + int(nan.sum())
            n = len(q)
            assert n < 3 or apart + 1 >= n or len(want_u) + len(np.unique(qy)) >= n

    def test_tables_are_smaller_than_the_tile_or_not_built(self):
        q = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0])
        axes = gather.query_axes(q, q)  # 3 + 3 < 7
        assert axes is not None
        assert gather.group_axes(axes, np.array([0, 1, 2])) is not None  # 1 + 1 < 3
        assert gather.group_axes(axes, np.array([4, 5, 6])) is None  # 3 + 3 >= 3


@contextlib.contextmanager
def counted_tables():
    """Counts ``gather.axis_tables`` calls (each is one group's tables)."""
    calls = []
    real = gather.axis_tables

    def count(*args):
        calls.append(len(args[3]) + len(args[4]))
        return real(*args)

    with mock.patch.object(gather, "axis_tables", count):
        yield calls


@contextlib.contextmanager
def tile_form(form):
    """Run plans with one tile form: ``"six-pass"`` never factors;
    ``"axes"`` factors every row group, however few its queries."""
    if form == "six-pass":
        with mock.patch.object(gather, "query_axes", lambda qx, qy: None):
            yield
        return

    def every_plan(qx, qy):
        return (*np.unique(qx, return_inverse=True), *np.unique(qy, return_inverse=True))

    def every_group(axes, positions):
        ux, ix, uy, iy = axes
        return (*gather._present(ux, ix[positions]), *gather._present(uy, iy[positions]))

    with mock.patch.object(gather, "query_axes", every_plan), mock.patch.object(
        gather, "group_axes", every_group
    ):
        yield


FORMS = ["six-pass", "axes"]


class TestPlansAnswerTheSameBytesInBothForms:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_heatmap_over_day_fixture_all_block_sizes(self, small_batch, form, n_shards):
        router = ShardRouter(
            RegionGrid.for_shard_count(_covered(small_batch), n_shards), h=2000
        )
        router.ingest(small_batch)
        with ShardedQueryEngine(router) as engine:
            probes = _heatmap_probes(small_batch, 20, 15)
            plan = engine.plan(probes, "naive")
            expected = fingerprint(whole_op_reference(engine, plan))
            for cells in (1, 1 << 12, 1 << 16, 2**62):
                with tile_form(form), counted_tables() as tables, mock.patch.object(
                    gather, "BLOCK_CELLS", cells
                ):
                    assert fingerprint(engine.execute(plan)) == expected
                assert bool(tables) == (form == "axes")

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=scenarios(max_queries=80, unanswerable=True),
        n_shards=st.sampled_from([1, 4]),
        h=st.sampled_from([7, 2000]),
        per_block=st.sampled_from([1, 7, None]),
        form=st.sampled_from(FORMS),
    )
    def test_any_scenario(self, scenario, n_shards, h, per_block, form):
        batch, queries = scenario
        router = build_router(batch, n_shards, h)
        with ShardedQueryEngine(
            router, radius_m=RADIUS
        ) as engine, np.errstate(all="ignore"):
            plan = engine.plan(queries, "naive")
            expected = fingerprint(whole_op_reference(engine, plan))
            with tile_form(form), forced_block(per_block, min(h, len(batch))):
                assert fingerprint(engine.execute(plan)) == expected

    def test_the_default_heatmap_factors_its_groups(self, small_batch):
        router = ShardRouter(RegionGrid.for_shard_count(_covered(small_batch), 4), h=2000)
        router.ingest(small_batch)
        with ShardedQueryEngine(router) as engine:
            probes = _heatmap_probes(small_batch, 40, 30)
            with counted_tables() as tables:
                engine.continuous_query_batch(probes, "naive")
        assert tables
        # Only coordinates a group uses: never all 40 + 30 of a 4-shard plan.
        assert max(tables) < 70


def test_a_route_plan_builds_no_axis_tables(small_batch):
    # A route over many windows is one ragged tile, which never asks;
    # gathered window by window it asks once, and is told no.
    router = ShardRouter(RegionGrid.for_shard_count(_covered(small_batch), 4), h=240)
    router.ingest(small_batch)
    rng = np.random.default_rng(9)
    box = _covered(small_batch)
    n = 128
    route = QueryBatch(
        np.sort(rng.uniform(small_batch.t[0], small_batch.t[-1], n)),
        rng.uniform(box.min_x, box.max_x, n),
        rng.uniform(box.min_y, box.max_y, n),
    )
    with ShardedQueryEngine(router) as engine:
        for ragged in (True, False):
            with counted_tables() as tables, mock.patch.object(
                gather, "query_axes", wraps=gather.query_axes
            ) as axes, mock.patch.object(
                pipeline_executor, "MIN_RAGGED_WINDOWS", 3 if ragged else 10**9
            ):
                result = engine.continuous_query_batch(route, "naive")
            assert int(result.support.sum()) > 0
            assert axes.call_count == (0 if ragged else 1)
            assert tables == []
        assert gather.query_axes(route.x, route.y) is None
