"""Tests for repro.query.sharded (engine behaviour; the byte-level
equivalence contract lives in ``tests/test_engine_equivalence.py``)."""

import json
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple, TupleBatch
from repro.data.windows import window
from repro.geo.coords import BoundingBox
from repro.query.base import BatchResult, QueryBatch
import repro.query.sharded as sharded_module
from repro.query.continuous import uniform_route_batch
from repro.query.naive import NaiveProcessor
from repro.query.pipeline.gather import BLOCK_CELLS
from repro.query.sharded import (
    CACHED_ROUTE_MAX_ROWS,
    SHARDED_METHODS,
    ShardedQueryEngine,
    window_rows,
)
from repro.geo.region import RegionGrid
from repro.server.async_server import EngineQueryService
from repro.storage.shards import ShardRouter, StaleLayoutError
from repro.storage.tiered import TieredShardRouter

from reference_gather import merge_hit_partials, scan_hits
from rows_entries import cache_rows, uncached_windows


@pytest.fixture(scope="module")
def router(small_batch):
    # Fixed bounds keep the partition deterministic for the module.
    grid = RegionGrid.for_shard_count(BoundingBox(0.0, 0.0, 6000.0, 4000.0), 4)
    r = ShardRouter(grid, h=240)
    step = 1200
    for start in range(0, len(small_batch), step):
        r.ingest(small_batch.slice(start, min(start + step, len(small_batch))))
    return r


@pytest.fixture(scope="module")
def engine(router):
    return ShardedQueryEngine(router, radius_m=1000.0)


@pytest.fixture(scope="module")
def t_mid(small_batch):
    return float(small_batch.t[500])


class TestConstruction:
    def test_validation(self, router):
        with pytest.raises(ValueError):
            ShardedQueryEngine(router, radius_m=-1.0)
        with pytest.raises(ValueError):
            ShardedQueryEngine(router, cache_capacity=0)

    def test_unknown_method_rejected(self, engine, t_mid):
        with pytest.raises(ValueError):
            engine.point_query(t_mid, 100.0, 100.0, method="quantum")

    def test_context_manager_closes_pool(self, router):
        with ShardedQueryEngine(router) as eng:
            assert eng.n_shards == 4
        assert eng.executor._pool is None


class TestPointQuery:
    def test_matches_window_naive_processor(self, engine, small_batch, t_mid):
        c = engine.router.window_for_time(t_mid)
        proc = NaiveProcessor(window(small_batch, c, 240), 1000.0)
        for x, y in ((2500.0, 1800.0), (900.0, 3000.0), (5200.0, 500.0)):
            ours = engine.point_query(t_mid, x, y, method="naive")
            ref = proc.process(QueryTuple(t=t_mid, x=x, y=y))
            assert ours.answered == ref.answered
            assert ours.support == ref.support
            if ref.answered:
                assert ours.value == pytest.approx(ref.value, rel=1e-9)

    def test_far_query_unanswered(self, engine, t_mid):
        res = engine.point_query(t_mid, 1e6, -1e6, method="naive")
        assert not res.answered
        assert res.support == 0

    def test_every_method_answers_central_query(self, engine, t_mid):
        for method in SHARDED_METHODS:
            res = engine.point_query(t_mid, 2500.0, 1800.0, method=method)
            assert res.answered, method


class TestContinuousQuery:
    def test_results_in_stream_order(self, engine, small_batch):
        t0, t1 = small_batch.time_span()
        queries = [
            QueryTuple(t=t0 + frac * (t1 - t0), x=2000.0 + 40.0 * i, y=1500.0)
            for i, frac in enumerate(np.linspace(0.05, 0.95, 25))
        ]
        results = engine.continuous_query(queries, method="naive")
        assert len(results) == len(queries)
        for q, r in zip(queries, results):
            assert r.query == q

    def test_empty_batch(self, engine):
        result = engine.continuous_query_batch(QueryBatch.from_queries([]))
        assert len(result) == 0
        assert result.results() == []


def _degenerate_router(batch: TupleBatch) -> ShardRouter:
    grid = RegionGrid.for_shard_count(BoundingBox(0.0, 0.0, 6000.0, 4000.0), 4)
    router = ShardRouter(grid, h=240)
    if len(batch):
        router.ingest(batch)
    return router


#: One tuple, and twenty tuples at one position: windows whose spatial
#: extent is a point, which every index and the cover fit must accept.
DEGENERATE_WINDOWS = {
    "single-tuple": TupleBatch(
        np.array([10.0]), np.array([100.0]), np.array([200.0]), np.array([450.0])
    ),
    "one-position": TupleBatch(
        np.arange(20, dtype=float),
        np.full(20, 100.0),
        np.full(20, 200.0),
        np.linspace(400.0, 500.0, 20),
    ),
}


class TestDegenerateWindows:
    """Every served method answers over a window whose extent is a point
    (the exact ones byte for byte as the naive scan does), and refuses a
    router with no rows at all."""

    QUERIES = QueryBatch(
        np.array([5.0, 5.0, 5.0]),
        np.array([100.0, 700.0, 5000.0]),  # on the rows, inside the radius, far
        np.array([200.0, 200.0, 3500.0]),
    )

    @pytest.mark.parametrize("shape", sorted(DEGENERATE_WINDOWS))
    @pytest.mark.parametrize("method", SHARDED_METHODS)
    def test_every_method_answers(self, shape, method):
        rows = DEGENERATE_WINDOWS[shape]
        with ShardedQueryEngine(_degenerate_router(rows), radius_m=1000.0) as engine:
            got = engine.continuous_query_batch(self.QUERIES, method=method)
            ref = engine.continuous_query_batch(self.QUERIES, method="naive")
        assert ref.answered.tolist() == [True, True, False]
        assert ref.values[0] == pytest.approx(float(np.mean(rows.s)))
        if method == "model-cover":
            # The owner's cover answers where the rows are; the far
            # query's owner slice is empty and its exact fallback finds
            # nothing.
            assert got.answered.tolist() == [True, True, False]
            assert got.values[0] == pytest.approx(float(np.mean(rows.s)))
        else:
            assert got.answered.tobytes() == ref.answered.tobytes()
            assert got.support.tobytes() == ref.support.tobytes()
            assert got.values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("method", SHARDED_METHODS)
    def test_empty_router_is_refused(self, method):
        with ShardedQueryEngine(_degenerate_router(TupleBatch.empty())) as engine:
            with pytest.raises(RuntimeError, match="router has no data"):
                engine.continuous_query_batch(self.QUERIES, method=method)


class TestHeatmap:
    def test_shape_and_agreement_with_window_processor(
        self, engine, small_batch, t_mid
    ):
        bounds = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
        grid = engine.heatmap_grid(t_mid, bounds, nx=16, ny=12, method="naive")
        assert grid.shape == (12, 16)
        c = engine.router.window_for_time(t_mid)
        proc = NaiveProcessor(window(small_batch, c, 240), 1000.0)
        probes = QueryBatch.from_grid(
            t_mid, bounds.min_x, bounds.min_y, bounds.width, bounds.height, 16, 12
        )
        expected = proc.process_batch(probes).grid(12, 16)
        np.testing.assert_allclose(
            grid, expected, rtol=1e-9, atol=1e-9, equal_nan=True
        )

    def test_degenerate_axes_probe_center(self, engine, t_mid):
        bounds = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
        grid = engine.heatmap_grid(t_mid, bounds, nx=1, ny=1, method="naive")
        assert grid.shape == (1, 1)
        center = engine.point_query(t_mid, 3000.0, 2000.0, method="naive")
        if center.answered:
            assert grid[0, 0] == pytest.approx(center.value)
        else:
            assert np.isnan(grid[0, 0])


class TestMergeInternals:
    def test_merge_empty_partials(self):
        queries = QueryBatch(np.zeros(3), np.zeros(3), np.zeros(3))
        result = merge_hit_partials(3, 10, [], queries)
        assert result.n_answered == 0
        assert np.all(np.isnan(result.values))

    def test_scan_hits_counts_match_naive(self, small_batch):
        from repro.query.naive import NaiveProcessor

        window = small_batch.slice(0, 240)
        gids = np.arange(240, dtype=np.int64)
        queries = QueryBatch(
            np.full(5, float(window.t[0])),
            np.linspace(500.0, 5500.0, 5),
            np.full(5, 2000.0),
        )
        probe, gid, vals = scan_hits(window, gids, queries, 1000.0)
        naive = NaiveProcessor(window, radius_m=1000.0).process_batch(queries)
        counts = np.bincount(probe, minlength=5)
        np.testing.assert_array_equal(counts, naive.support)
        assert len(gid) == len(vals) == len(probe)

    def test_cache_is_bounded(self, router, t_mid):
        engine = ShardedQueryEngine(router, radius_m=1000.0, cache_capacity=2)
        for method in ("kdtree", "vptree", "rtree"):
            engine.point_query(t_mid, 2500.0, 1800.0, method=method)
        assert len(engine._cache) <= 2


class TestOpenWindowIngest:
    def test_caches_never_serve_stale_open_window(self, small_batch):
        """Regression: an index/cover/plan built over a partial open
        window must not answer queries after the window gains tuples —
        every method must agree with a fresh naive scan."""
        grid = RegionGrid.for_shard_count(BoundingBox(0.0, 0.0, 6000.0, 4000.0), 4)
        router = ShardRouter(grid, h=240)
        router.ingest(small_batch.slice(0, 100))  # window 0 stays open
        engine = ShardedQueryEngine(router, radius_m=1500.0)
        t = float(small_batch.t[220])
        q = (t, 2500.0, 1800.0)
        for method in ("vptree", "model-cover"):
            engine.point_query(*q, method=method)  # warm caches on 100 rows
        router.ingest(small_batch.slice(100, 220))  # same window grows
        fresh = engine.point_query(*q, method="naive")
        assert fresh.support > 0
        for method in ("vptree", "kdtree"):
            res = engine.point_query(*q, method=method)
            assert res.support == fresh.support, method
            assert res.value == fresh.value, method
        mc = engine.point_query(*q, method="model-cover")
        # The owner's cover must now be fitted on the grown slice: its
        # prediction is a model answer (support 1) from a fresh fit, not
        # the 100-row cover (different fits disagree on this workload) —
        # at minimum the query stays answered and no stale index crashes.
        assert mc.answered


_HALVES = BoundingBox(0.0, 0.0, 6000.0, 4000.0)


class TestRegionLocality:
    """Region sharding is shard-local: ingest into one region never
    re-stamps or refits another region's slices, covers are fitted on the
    owner's slice alone, and a region without data is answered from the
    neighbouring shard's tuples within the radius."""

    @pytest.fixture()
    def halves(self, small_batch):
        """``(router, east_tail)``: a west/east router holding rows
        ``[0, 3000)`` (window 12 open, both halves in it) and the
        east-only tuples of the next 600 rows, to ingest later."""
        router = ShardRouter(RegionGrid(_HALVES, nx=2, ny=1), h=240)
        router.ingest(small_batch.slice(0, 3000))
        tail = small_batch.slice(3000, 3600)
        east_tail = tail.select_mask(tail.x >= 3000.0)
        assert len(east_tail)
        return router, east_tail

    def test_ingest_elsewhere_keeps_owner_stamps(self, halves):
        router, east_tail = halves
        windows = range(router.global_window_count() + 2)
        west_before = [router.shard_window_epoch(0, c) for c in windows]
        assert router.ingest(east_tail) == [0, len(east_tail)]
        assert [router.shard_window_epoch(0, c) for c in windows] == west_before
        open_c = router.window_for_time(float(east_tail.t[0]))
        assert router.shard_window_epoch(1, open_c) == router.epoch

    def test_ingest_elsewhere_keeps_owner_cover_cached(self, halves, small_batch):
        router, east_tail = halves
        t = float(small_batch.t[2950])  # inside open window 12
        open_c = router.window_for_time(t)
        assert len(router.shard_window(0, open_c))
        with ShardedQueryEngine(router, radius_m=1000.0) as engine:
            first = engine.point_query(t, 1500.0, 2000.0, method="model-cover")
            hits, misses = engine.cache_stats.hits, engine.cache_stats.misses
            assert misses  # the first query fitted the west cover
            router.ingest(east_tail)  # grows window 12 in the east only
            again = engine.point_query(t, 1500.0, 2000.0, method="model-cover")
            assert engine.cache_stats.misses == misses
            assert engine.cache_stats.hits > hits
            assert again == first

    def test_cover_fitted_on_owner_slice_only(self, halves, small_batch):
        router, _ = halves
        t = float(small_batch.t[1000])
        c = router.window_for_time(t)
        with ShardedQueryEngine(router, radius_m=1000.0) as engine:
            assert engine.point_query(t, 1500.0, 2000.0, method="model-cover").answered
            covers = [k for k in engine.processor_cache.keys() if k[0] == "cover"]
        assert covers == [("cover", 0, c)]

    @pytest.mark.parametrize("method", SHARDED_METHODS)
    def test_cold_owner_answered_from_neighbour(self, small_batch, method):
        router = ShardRouter(RegionGrid(_HALVES, nx=2, ny=1), h=240)
        router.ingest(small_batch.select_mask(small_batch.x < 3000.0))
        assert router.shard_counts()[1] == 0
        t = float(small_batch.t[len(small_batch) // 2])
        west = router.shard_window(0, router.window_for_time(t))
        k = int(np.argmax(west.x))  # the west tuple nearest the border
        x, y = 3100.0, float(west.y[k])
        assert router.grid.shard_of(x, y) == 1
        with ShardedQueryEngine(router, radius_m=1000.0) as engine:
            exact = engine.point_query(t, x, y, method="naive")
            res = engine.point_query(t, x, y, method=method)
        assert exact.support > 0
        assert res.support == exact.support
        assert res.value == exact.value

    @pytest.mark.parametrize("method", ["naive", "model-cover"])
    def test_no_data_anywhere_raises(self, method):
        router = ShardRouter(RegionGrid(_HALVES, nx=2, ny=2), h=240)
        with ShardedQueryEngine(router) as engine:
            with pytest.raises(RuntimeError, match="no data"):
                engine.point_query(0.0, 100.0, 100.0, method=method)


_LANE_H = 240
#: Rows ingested before a lane test starts: 20 sealed windows plus 100
#: rows of an open one, so the held-back tail can grow window 20.
_LANE_CUT = 20 * _LANE_H + 100


def _lane_router(
    small_batch, data_dir=None, rows=_LANE_CUT, memory_windows=4, shards=4
):
    """A ``shards``-shard router holding the first ``rows`` tuples:
    resident, or — given a ``data_dir`` — over segment files with
    ``memory_windows`` sealed slices kept in memory, so most plan-path
    reads fault in."""
    grid = RegionGrid.for_shard_count(BoundingBox(0.0, 0.0, 6000.0, 4000.0), shards)
    if data_dir is None:
        router = ShardRouter(grid, h=_LANE_H)
    else:
        router = TieredShardRouter(
            grid, h=_LANE_H, data_dir=data_dir, memory_windows=memory_windows
        )
    router.ingest(small_batch.slice(0, rows))
    return router


def _recut(router):
    """Leave ``router`` on a refined layout: the two busiest cells split
    (2x1 and 1x2), one of them after a 2x2 split was merged back, so
    slot ids were retired, one was reused and one is still a hole."""
    counts = router.shard_counts()
    hot, second = sorted(range(4), key=counts.__getitem__, reverse=True)[:2]
    router.split_shard(hot)
    router.merge_cell(router.grid.cell_of_shard(hot))
    router.split_shard(hot, 2, 1)
    router.split_shard(second, 1, 2)
    assert not router.grid.active_shards.all()


@pytest.fixture(params=["resident", "segment", "split"])
def lane(request, small_batch, tmp_path):
    """``(router, engine)`` over either window store, and over a
    resident store re-cut to a refined layout."""
    router = _lane_router(
        small_batch, tmp_path if request.param == "segment" else None
    )
    if request.param == "split":
        _recut(router)
    engine = ShardedQueryEngine(router)
    yield router, engine
    engine.close()
    if request.param == "segment":
        router.close()


def _recent_points(small_batch, n, seed):
    """Seeded point requests over the newest ~8 ingested windows."""
    rng = np.random.default_rng(seed)
    ts = rng.choice(small_batch.t[_LANE_CUT - 2000 : _LANE_CUT], size=n)
    xs = rng.uniform(0.0, 6000.0, size=n)
    ys = rng.uniform(0.0, 4000.0, size=n)
    return [
        {"t": float(t), "x": float(x), "y": float(y)} for t, x, y in zip(ts, xs, ys)
    ]


def _plan_path(engine, t, x, y):
    """The oracle: ``continuous_query_batch`` on the 1-row batch."""
    return engine.point_query(t, x, y, method="model-cover")


def _open_window_probe(router, small_batch):
    """``(t, x, y, tail)``: a point of the open window whose owner shard
    has rows there already and gains more when ``tail`` is ingested."""
    head = small_batch.slice(20 * _LANE_H, _LANE_CUT)
    tail = small_batch.slice(_LANE_CUT, _LANE_CUT + 50)
    shared = np.intersect1d(router.route(head), router.route(tail))
    k = int(np.flatnonzero(router.route(head) == shared[0])[0])
    return float(head.t[-1]), float(head.x[k]), float(head.y[k]), tail


class TestCachedPoint:
    """``cached_point``: the plan path's bytes or ``None``, never a wait."""

    def test_hits_are_byte_identical_to_the_plan_path(self, lane, small_batch):
        router, engine = lane
        service = EngineQueryService(engine, method="model-cover")
        points = _recent_points(small_batch, 2000, seed=19)

        def slow(p):
            r = _plan_path(engine, p["t"], p["x"], p["y"])
            return {"mode": "point", "value": r.value, "support": r.support}

        # The first pass also warms: every cover the stream needs is
        # cached, and so are the rows of every window an empty owner
        # slice sent the plan path's exact fallback to, unless that plan
        # pruned a sealed slice with rows.  The lane declines exactly
        # those points, and answers them once the window's rows are
        # cached.
        expected = [json.dumps(slow(p)) for p in points]
        empty_owners = unseeded = 0
        for p, want in zip(points, expected):
            point = QueryBatch([p["t"]], [p["x"]], [p["y"]])
            missing = uncached_windows(engine, point)
            got = service.cached("point", p)
            if missing:
                assert got is None
                unseeded += 1
                cache_rows(engine, missing[0])
                got = service.cached("point", p)
            assert json.dumps(got) == want
            assert json.dumps(service.point(p)) == want
            owner = router.grid.shard_of(p["x"], p["y"])
            empty_owners += not router.shard_window_epoch(owner, router.window_for_time(p["t"]))
        assert engine.lane_hits["point"] == len(points)
        assert engine.lane_declines.get(("point", "fallback"), 0) == unseeded
        assert empty_owners > 100 and unseeded < empty_owners

    def test_hit_bookkeeping_matches_the_plan_path(self, lane, small_batch):
        router, engine = lane
        t, x, y, _tail = _open_window_probe(router, small_batch)
        s = router.grid.shard_of(x, y)
        assert engine.cached_point(t, x, y, "model-cover") is None  # cold
        assert engine.cache_stats.lookups == 0  # a miss touches no counter
        expected = _plan_path(engine, t, x, y)
        before = engine.cache_stats.as_dict()
        plans = engine.prune_stats.plans
        scans = router.shard_load_stats()[s].scan_queries
        assert engine.cached_point(t, x, y, "model-cover") == expected
        after = engine.cache_stats.as_dict()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert engine.prune_stats.plans == plans  # no plan was built
        assert router.shard_load_stats()[s].scan_queries == scans + 1

    def test_a_hit_touches_no_batch_machinery(self, lane, small_batch, monkeypatch):
        """The lane answers from Python floats: with the 1-row batch's
        constructor, the vector routing and the vector cover evaluation
        all raising, a hit is still the plan path's answer."""
        router, engine = lane
        t, x, y, _tail = _open_window_probe(router, small_batch)
        expected = _plan_path(engine, t, x, y)

        def forbidden(*args, **kwargs):
            raise AssertionError("the cached lane built or evaluated an array")

        monkeypatch.setattr(QueryBatch, "__init__", forbidden)
        monkeypatch.setattr(BatchResult, "__init__", forbidden)
        monkeypatch.setattr(type(router.grid), "shards_of", forbidden)
        monkeypatch.setattr(ModelCover, "predict_batch", forbidden)
        monkeypatch.setattr(router, "windows_for_times", forbidden)
        assert engine.cached_point(t, x, y, "model-cover") == expected
        service = EngineQueryService(engine, method="model-cover")
        assert service.cached("point", {"t": t, "x": x, "y": y}) == {
            "mode": "point", "value": expected.value, "support": 1,
        }  # fmt: skip

    def test_scalar_window_search_equals_the_vector_search(self, lane, small_batch):
        router, _engine = lane
        firsts = small_batch.t[: _LANE_CUT : _LANE_H]  # each window's first tuple
        probes = [float(small_batch.t[0]) - 1e6, -1e300, float(small_batch.t[0])]
        for first in firsts:  # on, just before and just after every boundary
            first = float(first)
            probes += [math.nextafter(first, -math.inf), first, math.nextafter(first, math.inf)]
        last = float(small_batch.t[_LANE_CUT - 1])
        probes += [last, math.nextafter(last, math.inf), last + 1e6, 1e300]
        vector = router.windows_for_times(np.array(probes)).tolist()
        scalar = [router.window_for_time(t) for t in probes]
        assert scalar == vector
        assert all(type(c) is int for c in scalar)
        assert scalar[0] == scalar[1] == 0 and scalar[-1] == 20
        with pytest.raises(RuntimeError):
            _lane_router(small_batch, rows=0).window_for_time(0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_input_declines(self, lane, small_batch):
        router, engine = lane
        t, x, y, _tail = _open_window_probe(router, small_batch)
        _plan_path(engine, t, x, y)
        before = engine.cache_stats.as_dict()
        for field in range(3):
            for bad in (math.nan, math.inf, -math.inf):
                args = [t, x, y]
                args[field] = bad
                assert engine.cached_point(*args, "model-cover") is None
        assert engine.cache_stats.as_dict() == before
        assert engine.cached_point(t, x, y, "model-cover") is not None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_far_finite_coordinates_take_the_lane(self, lane, small_batch):
        """1e300 passes the request validation; the owner is the edge
        cell on both paths, so once the plan path has cached that cover
        — or, for an empty owner slice, the window's rows — the lane
        serves it byte-identically.  Routing and the cover hit never
        warn (the plan path's vector cover evaluation overflows to inf
        there, which numpy reports; that is not the routing's).  An
        empty owner's scan squares the same far offsets the plan path's
        exact scan does, so that overflow, and only that one, is
        allowed there."""
        router, engine = lane
        t = float(small_batch.t[_LANE_CUT - 1])
        service = EngineQueryService(engine, method="model-cover")
        owners = []
        for x, y in [(1e300, 2000.0), (-1e300, 2000.0), (3000.0, 1e300), (1e300, -1e300)]:
            params = {"t": t, "x": x, "y": y}
            slow = service._point(engine.point_query, params)  # the plan path
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                s = router.grid.shard_of(x, y)
                assert s == int(router.route(TupleBatch([t], [x], [y], [0.0]))[0])
                owners.append(router.shard_window_epoch(s, router.window_for_time(t)))
                if owners[-1]:
                    got = service.cached("point", params)
                else:
                    with np.errstate(over="ignore"):
                        got = service.cached("point", params)
            assert json.dumps(got) == json.dumps(slow)
        assert any(owners) and not all(owners)
        assert engine.lane_hits["point"] == 4

    @pytest.mark.parametrize("method", [m for m in SHARDED_METHODS if m != "model-cover"])
    def test_other_methods_never_enter_the_lane(self, lane, small_batch, method):
        router, engine = lane
        t, x, y, _tail = _open_window_probe(router, small_batch)
        _plan_path(engine, t, x, y)  # the cover is cached
        assert engine.cached_point(t, x, y, "model-cover") is not None
        before = engine.cache_stats.as_dict()
        assert engine.cached_point(t, x, y, method) is None
        assert EngineQueryService(engine, method=method).cached(
            "point", {"t": t, "x": x, "y": y}
        ) is None
        assert engine.cache_stats.as_dict() == before

    def test_empty_router_is_a_miss_not_an_error(self, small_batch):
        with ShardedQueryEngine(_lane_router(small_batch, rows=0)) as engine:
            assert engine.cached_point(0.0, 1.0, 1.0, "model-cover") is None

    def test_ingest_invalidates_until_the_plan_path_refits(self, lane, small_batch):
        router, engine = lane
        t, x, y, tail = _open_window_probe(router, small_batch)
        _plan_path(engine, t, x, y)
        assert engine.cached_point(t, x, y, "model-cover") is not None
        router.ingest(tail)
        # The owner's slice of the open window grew: the cached cover
        # names an older stamp and must not be served.
        assert engine.cached_point(t, x, y, "model-cover") is None
        refit = _plan_path(engine, t, x, y)
        assert engine.cached_point(t, x, y, "model-cover") == refit

    def test_recut_invalidates_until_the_plan_path_refits(self, small_batch):
        router = _lane_router(small_batch)
        t, x, y, _tail = _open_window_probe(router, small_batch)
        with ShardedQueryEngine(router) as engine:
            _plan_path(engine, t, x, y)
            assert engine.cached_point(t, x, y, "model-cover") is not None
            s = router.grid.shard_of(x, y)
            router.split_shard(s)
            assert engine.cached_point(t, x, y, "model-cover") is None
            after_split = _plan_path(engine, t, x, y)
            assert engine.cached_point(t, x, y, "model-cover") == after_split
            router.merge_cell(router.grid.cell_of_shard(router.grid.shard_of(x, y)))
            assert engine.cached_point(t, x, y, "model-cover") is None
            after_merge = _plan_path(engine, t, x, y)
            assert engine.cached_point(t, x, y, "model-cover") == after_merge

    def test_an_evicted_cover_is_a_miss(self, small_batch):
        router = _lane_router(small_batch)
        t, x, y, _tail = _open_window_probe(router, small_batch)
        t_old = float(small_batch.t[19 * _LANE_H + 1])
        with ShardedQueryEngine(router, cache_capacity=1) as engine:
            first = _plan_path(engine, t, x, y)
            assert engine.cached_point(t, x, y, "model-cover") == first
            # Another window's cover takes the one slot.
            assert router.window_for_time(t_old) != router.window_for_time(t)
            second = _plan_path(engine, t_old, x, y)
            assert engine.cache_stats.evictions >= 1
            before = engine.cache_stats.as_dict()
            assert engine.cached_point(t, x, y, "model-cover") is None
            assert engine.cache_stats.as_dict() == before
            assert engine.cached_point(t_old, x, y, "model-cover") == second

    def test_never_waits_for_the_router_lock(self, lane, small_batch):
        router, engine = lane
        t_old = float(small_batch.t[5 * _LANE_H + 1])
        _t, x, y, _tail = _open_window_probe(router, small_batch)
        expected = _plan_path(engine, t_old, x, y)
        for p in _recent_points(small_batch, 40, seed=3):
            _plan_path(engine, p["t"], p["x"], p["y"])  # pages window 5 out
        tiered = isinstance(router, TieredShardRouter)
        if tiered:
            faults, resident = router.faults, router.resident_window_count()
        held, release = threading.Event(), threading.Event()

        def hold():
            with router._lock:
                held.set()
                release.wait(timeout=30.0)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(timeout=10.0)
        answers = []
        reader = threading.Thread(
            target=lambda: answers.append(
                engine.cached_point(t_old, x, y, "model-cover")
            ),
            daemon=True,
        )
        try:
            reader.start()
            reader.join(timeout=10.0)
            assert not reader.is_alive(), "the lane waited for the router lock"
        finally:
            release.set()
            holder.join(timeout=10.0)
        assert not holder.is_alive()
        assert answers == [expected]
        if tiered:
            # Window 5's slice stayed on disk: the cover alone answered.
            assert router.faults == faults
            assert router.resident_window_count() == resident

    def test_racing_recuts_never_mix_two_layouts(self, small_batch, monkeypatch):
        """Readers, a plan-path warmer and a split/merge loop on more
        threads than cores: every lane answer is the plan path's at the
        unsplit or at the split layout — never one tile's cover for
        another tile's point.  The readers dawdle around their stamp
        read, which is where a whole re-cut (and the warmer's re-fit)
        has to land for an unvalidated probe to mix layouts."""
        router = _lane_router(small_batch)
        window = small_batch.slice(10 * _LANE_H, 11 * _LANE_H)  # sealed
        owners = router.route(window)
        s = int(np.bincount(owners).argmax())
        rows = np.flatnonzero(owners == s)[:: max(1, (owners == s).sum() // 8)]
        t = float(window.t[-1])
        probes = [(t, float(window.x[k]), float(window.y[k])) for k in rows]
        engine = ShardedQueryEngine(router)
        valid = [{_plan_path(engine, *p).value} for p in probes]
        router.split_shard(s)
        for answers, p in zip(valid, probes):
            answers.add(_plan_path(engine, *p).value)
        cell = router.grid.cell_of_shard(s)
        router.merge_cell(cell)
        assert any(len(answers) == 2 for answers in valid)  # layouts differ
        stop = threading.Event()
        wrong, hits = [], [0]
        read_stamp = router.shard_window_epoch

        def dawdling_stamp(shard, c):
            if threading.current_thread().name != "lane-reader":
                return read_stamp(shard, c)
            time.sleep(0.001)
            stamp = read_stamp(shard, c)
            time.sleep(0.003)
            return stamp

        monkeypatch.setattr(router, "shard_window_epoch", dawdling_stamp)

        def recut():
            while not stop.is_set():
                router.split_shard(s)
                time.sleep(0.002)
                router.merge_cell(cell)
                time.sleep(0.002)

        def warm():
            while not stop.is_set():
                for p in probes:
                    try:
                        _plan_path(engine, *p)
                    except StaleLayoutError:  # three re-cuts raced one plan
                        pass

        route = QueryBatch(*(np.array(column) for column in zip(*probes)))

        def read():
            while not stop.is_set():
                for answers, p in zip(valid, probes):
                    got = engine.cached_point(*p, "model-cover")
                    if got is not None:
                        hits[0] += 1
                        if got.value not in answers:
                            wrong.append((p, got.value))
                # The probes as one route: every row of a route-lane hit
                # is its point's answer at one of the two layouts.
                got = engine.cached_route(route, "model-cover")
                if got is not None:
                    hits[0] += 1
                    for answers, p, value in zip(valid, probes, got.values.tolist()):
                        if value not in answers:
                            wrong.append((p, value))

        threads = [
            threading.Thread(target=recut, daemon=True),
            threading.Thread(target=warm, daemon=True),
            *(
                threading.Thread(target=read, daemon=True, name="lane-reader")
                for _ in range(3)
            ),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            time.sleep(0.8)
        finally:
            stop.set()
            for th in threads:
                th.join(timeout=30.0)
            sys.setswitchinterval(interval)
            engine.close()
        assert not any(th.is_alive() for th in threads)
        assert wrong == []
        assert hits[0] > 0


# -- the multi-row lane ---------------------------------------------------------


@pytest.fixture(params=["resident", "one-slot", "split"])
def route_lane(request, small_batch, tmp_path):
    """``(router, engine)`` over a resident store, a segment store that
    keeps one sealed slice in memory (nearly every plan-path read faults
    in), and a resident store re-cut to a refined layout."""
    if request.param == "one-slot":
        router = _lane_router(small_batch, tmp_path, memory_windows=1)
    else:
        router = _lane_router(small_batch)
    if request.param == "split":
        _recut(router)
    engine = ShardedQueryEngine(router)
    yield router, engine
    engine.close()
    if request.param == "one-slot":
        router.close()


def _route(small_batch, seed):
    """A 4-waypoint route along sensed positions of the newest 2 000
    ingested rows: 30 updates over 30 minutes."""
    rng = np.random.default_rng(seed)
    i = int(rng.integers(_LANE_CUT - 2000, _LANE_CUT - 120))
    rows = [i + 30 * k for k in range(4)]
    waypoints = [(float(small_batch.x[r]), float(small_batch.y[r])) for r in rows]
    t_start = float(small_batch.t[i])
    return uniform_route_batch(waypoints, t_start, t_start + 1800.0, 1800.0 / 29, 30)


def _covered_route(router, small_batch, min_groups=1):
    """The first seeded route owned by at least ``min_groups`` (shard,
    window) pairs, none of them an empty slice."""
    for seed in range(200):
        batch = _route(small_batch, seed)
        groups = _groups(router, batch)
        if len(groups) >= min_groups and all(
            router.shard_window_epoch(s, c) for s, c in groups
        ):
            return batch
    raise AssertionError("no seeded route fits")


def _with_empty_owner(router, batch, t=None, k=1):
    """``(mixed, (t, x, y))``: ``batch`` with ``k`` queries appended at
    time ``t`` (default: the batch's first) and at the centre of a
    shard's region whose slice of that time's window is empty."""
    t = float(batch.t[0]) if t is None else t
    c = router.window_for_time(t)
    active = getattr(router.grid, "active_shards", None)
    owner = next(
        s for s in range(router.n_shards)
        if not router.shard_window_epoch(s, c) and (active is None or active[s])
    )  # fmt: skip
    box = router.grid.region(owner).bounds
    x, y = (box.min_x + box.max_x) / 2, (box.min_y + box.max_y) / 2
    assert router.grid.shard_of(x, y) == owner
    mixed = QueryBatch(*(
        np.append(column, [value] * k)
        for column, value in ((batch.t, t), (batch.x, x), (batch.y, y))
    ))  # fmt: skip
    return mixed, (t, x, y)


def _result_bytes(result):
    q = result.queries
    return (
        q.t.tobytes(), q.x.tobytes(), q.y.tobytes(),
        result.values.tobytes(), result.support.tobytes(), result.answered.tobytes(),
    )  # fmt: skip


def _groups(router, batch):
    """The (shard, window) pairs the batch's rows are owned by."""
    windows = router.windows_for_times(batch.t)
    shards = router.grid.shards_of(batch.x, batch.y)
    return sorted(set(zip(shards.tolist(), windows.tolist())))


def _lookups(router, batch):
    """``(covers, windows)``: the lookups a model-cover plan of ``batch``
    makes in the processor cache — one per cover of a non-empty owner
    slice — and in the rows cache — one per window whose rows its exact
    fallback answered."""
    groups = _groups(router, batch)
    covers = [(s, c) for s, c in groups if router.shard_window_epoch(s, c)]
    return len(covers), len({c for s, c in groups if (s, c) not in covers})


def _hits(engine):
    """Hits counted so far in the processor cache and the rows cache."""
    return engine.cache_stats.hits, engine.rows_cache.stats.hits


def _stats(engine):
    """Every counter of the processor cache and the rows cache."""
    return engine.cache_stats.as_dict(), engine.rows_cache.stats.as_dict()


def _counting_fits(monkeypatch):
    fits = []
    real = sharded_module.fit_adkmn

    def counted(*args, **kwargs):
        fits.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sharded_module, "fit_adkmn", counted)
    return fits


_coordinate = st.floats(min_value=-500.0, max_value=6500.0)


@pytest.fixture(params=[(1, "resident"), (1, "segment"), (4, "resident"), (4, "segment")])
def sweep_lane(request, small_batch, tmp_path):
    """``(router, engine)`` over 1 or 4 shards, resident or over segment
    files keeping one sealed slice in memory."""
    shards, store = request.param
    data_dir = tmp_path if store == "segment" else None
    router = _lane_router(small_batch, data_dir, memory_windows=1, shards=shards)
    engine = ShardedQueryEngine(router)
    yield router, engine
    engine.close()
    if data_dir is not None:
        router.close()


#: A query's row (its time) in a sealed window or in the open one.
_lane_row = st.integers(_LANE_CUT - 2000, 20 * _LANE_H - 1) | st.integers(
    20 * _LANE_H, _LANE_CUT - 1
)


class TestCachedRoute:
    """``cached_route``: the plan path's bytes or ``None``, never a wait."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        waypoints=st.lists(st.tuples(_coordinate, _coordinate), min_size=2, max_size=5),
        start=st.integers(min_value=_LANE_CUT - 2000, max_value=_LANE_CUT - 1),
        duration=st.floats(min_value=1.0, max_value=20_000.0),
        updates=st.integers(min_value=1, max_value=CACHED_ROUTE_MAX_ROWS),
    )
    def test_hits_are_byte_identical_to_the_plan_path(
        self, route_lane, small_batch, waypoints, start, duration, updates
    ):
        router, engine = route_lane
        t_start = float(small_batch.t[start])
        batch = uniform_route_batch(
            waypoints, t_start, t_start + duration, duration / max(updates - 1, 1), updates
        )
        # The plan path answers first, and caches every cover it needs
        # and the rows of every window its exact fallback answered — of
        # a sealed one, only when it read every slice with rows.
        expected = engine.continuous_query_batch(batch, method="model-cover")
        self._lane_answers(router, engine, batch, expected)

    @staticmethod
    def _lane_answers(router, engine, batch, expected):
        """The lane answers ``batch`` in ``expected``'s bytes, counting
        a hit per lookup and faulting nothing in — once any window rows
        the plan path did not cache are cached (declined until then)."""
        missing = uncached_windows(engine, batch)
        declines = dict(engine.lane_declines)
        faults = getattr(router, "faults", 0)
        got = engine.cached_route(batch, "model-cover")
        if missing:
            assert got is None
            declines["route", "fallback"] = declines.get(("route", "fallback"), 0) + 1
            for c in missing:
                cache_rows(engine, c)
            faults = getattr(router, "faults", 0)
        assert engine.lane_declines == declines
        hits = _hits(engine)
        got = engine.cached_route(batch, "model-cover")
        assert getattr(router, "faults", 0) == faults
        assert got is not None
        assert _result_bytes(got) == _result_bytes(expected)
        assert _hits(engine) == tuple(np.add(hits, _lookups(router, batch)))

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        queries=st.lists(
            st.tuples(_lane_row, st.none() | st.integers(min_value=0, max_value=3)),
            min_size=1,
            max_size=CACHED_ROUTE_MAX_ROWS,
        )
    )
    def test_routes_mixing_covers_and_empty_owners_are_the_plan_paths_bytes(
        self, sweep_lane, small_batch, queries
    ):
        """Each query sits at a sensed row's time, at that row's own
        position (``None``: its owner has rows) or at the centre of a
        shard's region (on 4 shards, one whose slice of the window is
        empty more often than not).  Once the plan path has answered the
        route, the lane answers it in the plan path's bytes, faulting
        nothing in: at once when that plan cached every empty owner's
        window rows, else once those are cached."""
        router, engine = sweep_lane
        centres = [
            ((b.min_x + b.max_x) / 2, (b.min_y + b.max_y) / 2)
            for b in (router.grid.region(s).bounds for s in range(router.n_shards))
        ]
        rows = [row for row, _place in queries]
        xy = [
            (small_batch.x[row], small_batch.y[row])
            if place is None
            else centres[place % router.n_shards]
            for row, place in queries
        ]
        batch = QueryBatch(small_batch.t[rows], *(np.array(col) for col in zip(*xy)))
        expected = engine.continuous_query_batch(batch, method="model-cover")
        self._lane_answers(router, engine, batch, expected)

    def test_service_answers_are_the_plan_path_bytes(self, route_lane, small_batch):
        router, engine = route_lane
        service = EngineQueryService(engine, method="model-cover")
        hits = 0
        for seed in range(60):
            batch = _route(small_batch, seed)
            params = {
                "route": [[float(x), float(y)] for x, y in zip(batch.x[::10], batch.y[::10])],
                "t_start": float(batch.t[0]),
            }
            slow = json.dumps(service.continuous(dict(params)))  # the plan path
            got = service.cached("continuous", params)
            if got is not None:
                hits += 1
                assert json.dumps(got) == slow
        assert hits > 40
        assert engine.lane_hits["route"] == hits

    def test_a_hit_builds_no_plan(self, route_lane, small_batch, monkeypatch):
        router, engine = route_lane
        batch = _covered_route(router, small_batch, min_groups=2)
        expected = engine.continuous_query_batch(batch, method="model-cover")

        def forbidden(*args, **kwargs):
            raise AssertionError("the route lane built a plan")

        monkeypatch.setattr(sharded_module, "build_sharded_plan", forbidden)
        fits = _counting_fits(monkeypatch)
        plans = engine.prune_stats.plans
        got = engine.cached_route(batch, "model-cover")
        assert got is not None and _result_bytes(got) == _result_bytes(expected)
        assert engine.prune_stats.plans == plans and not fits

    def test_a_hit_reports_each_owner_to_the_load_tracker(self, small_batch):
        router = _lane_router(small_batch)
        with ShardedQueryEngine(router) as engine:
            batch = _covered_route(router, small_batch, min_groups=3)
            engine.continuous_query_batch(batch, method="model-cover")
            before = [stat.scan_queries for stat in router.shard_load_stats()]
            assert engine.cached_route(batch, "model-cover") is not None
            after = [stat.scan_queries for stat in router.shard_load_stats()]
            owners = router.grid.shards_of(batch.x, batch.y)
            assert [b - a for a, b in zip(before, after)] == np.bincount(
                owners, minlength=router.n_shards
            ).tolist()

    def _declines(self, route_lane, monkeypatch, cases):
        """Run each ``(reason, call)``: ``None``, counted under its
        reason, with no fault, fit, plan or cache counter touched."""
        router, engine = route_lane
        fits = _counting_fits(monkeypatch)
        hits = engine.lane_hits
        for reason, call in cases:
            faults = getattr(router, "faults", 0)
            stats = _stats(engine)
            plans = engine.prune_stats.plans
            declines = engine.lane_declines.copy()
            assert call() is None, reason
            assert getattr(router, "faults", 0) == faults, reason
            assert _stats(engine) == stats, reason
            assert engine.prune_stats.plans == plans, reason
            assert not fits, reason
            declines["route", reason] += 1
            assert engine.lane_declines == declines, reason
        assert engine.lane_hits == hits

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_each_decline_reason(self, route_lane, small_batch, monkeypatch):
        router, engine = route_lane
        batch = _covered_route(router, small_batch)
        engine.continuous_query_batch(batch, method="model-cover")  # all cached
        long_batch = QueryBatch(
            *(np.resize(col, CACHED_ROUTE_MAX_ROWS + 1) for col in (batch.t, batch.x, batch.y))
        )
        engine.continuous_query_batch(long_batch, method="model-cover")

        def with_column(i, value):
            cols = [batch.t.copy(), batch.x.copy(), batch.y.copy()]
            cols[i][7] = value
            return QueryBatch(*cols)

        cases = [
            ("method", lambda: engine.cached_route(batch, "naive")),
            ("method", lambda: engine.cached_route(batch, "vptree")),
            ("rows", lambda: engine.cached_route(long_batch, "model-cover")),
            ("empty", lambda: engine.cached_route(QueryBatch([], [], []), "model-cover")),
        ]
        for i in range(3):
            for bad in (math.nan, math.inf, -math.inf):
                cases.append((
                    "non-finite",
                    lambda i=i, bad=bad: engine.cached_route(with_column(i, bad), "model-cover"),
                ))  # fmt: skip
        self._declines(route_lane, monkeypatch, cases)
        # Nothing above was a verdict on the covers: the batch still hits.
        assert engine.cached_route(batch, "model-cover") is not None
        at_cap = long_batch.take(np.arange(CACHED_ROUTE_MAX_ROWS))
        assert len(engine.cached_route(at_cap, "model-cover")) == CACHED_ROUTE_MAX_ROWS

    def test_caching_window_rows_faults_nothing_the_plan_did_not(
        self, small_batch, tmp_path, monkeypatch
    ):
        """On a segment store keeping one sealed slice in memory, a
        model-cover plan faults in exactly as many slices whether or not
        it caches its exact fallback's window rows.  A sealed window
        whose slices with rows the plan did not all read is not cached
        (its empty owner's query reaches no other shard); once a plan
        reads them all — a query at a sensed row of each — it is."""
        c_sealed = _LANE_CUT // _LANE_H - 3
        rows = small_batch.slice(c_sealed * _LANE_H, (c_sealed + 1) * _LANE_H)
        routers = [
            _lane_router(small_batch, tmp_path / name, memory_windows=1)
            for name in ("seeded", "unseeded")
        ]
        probe = routers[0]
        t_head = float(small_batch.t[_LANE_CUT - 1])
        none = QueryBatch([], [], [])
        sealed, (t, x, y) = _with_empty_owner(probe, none, t=float(rows.t[120]))
        assert probe.window_for_time(t) == c_sealed
        shards = probe.route(rows)
        anchors = [int(np.flatnonzero(shards == s)[0]) for s in np.unique(shards).tolist()]
        assert len(anchors) > 1
        read_all = QueryBatch(*(
            np.append(column[anchors], value)
            for column, value in ((rows.t, t), (rows.x, x), (rows.y, y))
        ))  # fmt: skip
        head, _ = _with_empty_owner(probe, none, t=t_head)
        plans = [sealed, head, read_all]
        faults, cached = [], []
        for router, seeding in zip(routers, (True, False)):
            if not seeding:
                monkeypatch.setattr(sharded_module, "window_rows", lambda *args: None)
            with ShardedQueryEngine(router) as engine:
                seen = []
                for batch in plans:
                    engine.continuous_query_batch(batch, method="model-cover")
                    seen.append((router.faults, not uncached_windows(engine, batch)))
            faults.append([f for f, _ in seen])
            cached.append([hit for _, hit in seen])
            router.close()
        assert faults[0] == faults[1]
        assert faults[0][-1] > faults[0][0]  # the last plan faulted slices in
        assert cached == [[False, True, True], [False, False, False]]

    def test_an_empty_owner_takes_the_lane_once_its_window_rows_are_cached(
        self, route_lane, small_batch, monkeypatch
    ):
        router, engine = route_lane
        batch = _covered_route(router, small_batch)
        engine.continuous_query_batch(batch, method="model-cover")
        t_head = float(small_batch.t[_LANE_CUT - 1])  # the open window
        mixed, point = _with_empty_owner(router, batch, t=t_head)
        # Every cover is cached, the window's rows are not: no plan has
        # run an exact fallback in that window yet.
        self._declines(
            route_lane, monkeypatch,
            [("fallback", lambda: engine.cached_route(mixed, "model-cover"))],
        )  # fmt: skip
        assert engine.cached_point(*point, "model-cover") is None
        assert engine.lane_declines["point", "fallback"] == 1
        monkeypatch.undo()
        hits, misses = engine.cache_stats.hits, engine.cache_stats.misses
        expected = engine.continuous_query_batch(mixed, method="model-cover")
        # The rows went to their own cache: the covers' counters saw one
        # hit per cover and nothing else.
        assert engine.cache_stats.hits == hits + _lookups(router, mixed)[0]
        assert engine.cache_stats.misses == misses
        c = router.window_for_time(point[0])
        assert ("rows", c) in engine.rows_cache and ("rows", c) not in engine.processor_cache
        expected_point = engine.point_query(*point, method="model-cover")
        faults = getattr(router, "faults", 0)
        plans = engine.prune_stats.plans
        fits = _counting_fits(monkeypatch)
        hits = _hits(engine)
        got = engine.cached_route(mixed, "model-cover")
        assert got is not None and _result_bytes(got) == _result_bytes(expected)
        assert engine.cached_point(*point, "model-cover") == expected_point
        covers, windows = _lookups(router, mixed)
        assert _hits(engine) == (hits[0] + covers, hits[1] + windows + 1)
        assert getattr(router, "faults", 0) == faults
        assert engine.prune_stats.plans == plans and not fits
        assert engine.lane_hits == {"route": 1, "point": 1}

    def test_an_entry_saying_the_owner_had_rows_declines(self, small_batch, monkeypatch):
        """The torn read: the owner's stamp was read as 0 before an
        ingest gave its slice rows, and the window's rows entry — of
        the state after that ingest — says so.  Declined, as
        ``"fallback"``, with nothing counted."""
        router = _lane_router(small_batch)
        with ShardedQueryEngine(router) as engine:
            batch = _covered_route(router, small_batch)
            t_head = float(small_batch.t[_LANE_CUT - 1])
            mixed, (t, x, y) = _with_empty_owner(router, batch, t=t_head)
            c, owner = router.window_for_time(t), router.grid.shard_of(x, y)
            engine.continuous_query_batch(mixed, method="model-cover")
            assert engine.cached_route(mixed, "model-cover") is not None
            router.ingest(TupleBatch([t + 1.0], [x], [y], [450.0]))
            assert router.window_for_time(t) == c and router.shard_window_epoch(owner, c)
            window_rows(engine.rows_cache, engine.binding(), c)  # that state's entry
            real, torn = router.shard_window_epoch, []

            def read_before_the_ingest(s, w):
                if (s, w) == (owner, c) and not torn:
                    torn.append(1)
                    return 0
                return real(s, w)

            monkeypatch.setattr(router, "shard_window_epoch", read_before_the_ingest)
            calls = [
                lambda: engine.cached_route(mixed, "model-cover"),
                lambda: engine.cached_point(t, x, y, "model-cover"),
            ]
            for lane, call in zip(("route", "point"), calls):
                torn.clear()
                stats = _stats(engine)
                assert call() is None and torn
                assert _stats(engine) == stats
                assert engine.lane_declines[lane, "fallback"] == 1
            assert engine.lane_hits == {"route": 1}

    def test_a_cover_read_before_an_ingest_the_rows_entry_saw_declines(
        self, small_batch, monkeypatch
    ):
        """The other torn read: a cover run's stamp read before an ingest
        reached its slice, and the window's rows entry of the state after
        it, cached by a plan that did not re-fit that cover.  Both are
        cached, but they are two states of one window: declined."""
        router = _lane_router(small_batch)
        with ShardedQueryEngine(router) as engine:
            k = _LANE_CUT - 1
            t, x, y = float(small_batch.t[k]), float(small_batch.x[k]), float(small_batch.y[k])
            c, owner = router.window_for_time(t), router.grid.shard_of(x, y)
            mixed, point = _with_empty_owner(router, QueryBatch([t], [x], [y]))
            engine.continuous_query_batch(mixed, method="model-cover")
            assert engine.cached_route(mixed, "model-cover") is not None
            stale = router.shard_window_epoch(owner, c)
            router.ingest(TupleBatch([t + 1.0], [x], [y], [450.0]))
            assert router.window_for_time(t) == c
            # The empty owner's query alone: rows of the new state, no fit.
            engine.continuous_query_batch(
                QueryBatch([point[0]], [point[1]], [point[2]]), method="model-cover"
            )
            assert engine.processor_cache.peek(("cover", owner, c), stale) is not None
            real, torn = router.shard_window_epoch, []

            def read_before_the_ingest(s, w):
                if (s, w) == (owner, c) and not torn:
                    torn.append(1)
                    return stale
                return real(s, w)

            monkeypatch.setattr(router, "shard_window_epoch", read_before_the_ingest)
            stats = _stats(engine)
            assert engine.cached_route(mixed, "model-cover") is None and torn
            assert _stats(engine) == stats
            assert engine.lane_declines == {("route", "fallback"): 1}

    def test_a_stale_window_rows_entry_declines(self, small_batch, monkeypatch, tmp_path):
        for data_dir in (None, tmp_path):
            router = _lane_router(small_batch, data_dir, memory_windows=1)
            batch = _covered_route(router, small_batch)
            t_head = float(small_batch.t[_LANE_CUT - 1])
            mixed, point = _with_empty_owner(router, batch, t=t_head)
            c, owner = router.window_for_time(point[0]), router.grid.shard_of(*point[1:])
            tail = small_batch.slice(_LANE_CUT, _LANE_CUT + 50)
            assert not (router.route(tail) == owner).any()
            with ShardedQueryEngine(router) as engine:
                lane = (router, engine)
                engine.continuous_query_batch(mixed, method="model-cover")
                assert engine.cached_route(mixed, "model-cover") is not None
                # The window grows; its empty owner's slice stays empty,
                # but the entry names the window's older content.
                router.ingest(tail)
                assert router.window_for_time(point[0]) == c
                assert not router.shard_window_epoch(owner, c)
                self._declines(lane, monkeypatch, [
                    ("fallback", lambda: engine.cached_route(mixed, "model-cover")),
                ])  # fmt: skip
                assert engine.cached_point(*point, "model-cover") is None
                assert engine.lane_declines["point", "fallback"] == 1
                monkeypatch.undo()
                refit = engine.continuous_query_batch(mixed, method="model-cover")
                got = engine.cached_route(mixed, "model-cover")
                assert _result_bytes(got) == _result_bytes(refit)
                assert engine.cached_point(*point, "model-cover") == engine.point_query(
                    *point, method="model-cover"
                )
            if data_dir is not None:
                router.close()

    def test_a_tile_over_one_block_declines(self, small_batch, monkeypatch):
        """At h = 2000 a sealed window holds 2 000 rows: an empty owner's
        run of 16 queries is a 32 000-cell tile and takes the lane, one
        of 17 would be 34 000 cells, more than the exact gather's block,
        and goes to the executor.  The bound is on the whole route: 8
        such queries in one window and 9 in another go to the executor
        too, though each window's run alone is within the block."""
        assert 16 * 2000 <= BLOCK_CELLS < 17 * 2000
        grid = RegionGrid.for_shard_count(BoundingBox(0.0, 0.0, 6000.0, 4000.0), 4)
        router = ShardRouter(grid, h=2000)
        router.ingest(small_batch)
        ts = [float(small_batch.t[3000]), float(small_batch.t[5000])]  # sealed
        cs = [router.window_for_time(t) for t in ts]
        assert cs == [1, 2]
        assert all(sum(len(sub) for sub in router.shard_windows(c)) == 2000 for c in cs)
        owner = next(
            s for s in range(4) if not any(router.shard_window_epoch(s, c) for c in cs)
        )  # fmt: skip
        box = grid.region(owner).bounds
        with ShardedQueryEngine(router) as engine:

            def runs(*ks):
                xs = [np.linspace(box.min_x + 1.0, box.max_x - 1.0, k) for k in ks]
                return QueryBatch(
                    np.concatenate([np.full(k, t) for k, t in zip(ks, ts)]),
                    np.concatenate(xs),
                    np.full(sum(ks), (box.min_y + box.max_y) / 2),
                )

            for ks in [(16,), (8, 8)]:
                expected = engine.continuous_query_batch(runs(*ks), method="model-cover")
                for c in uncached_windows(engine, runs(*ks)):
                    cache_rows(engine, c)
                got = engine.cached_route(runs(*ks), "model-cover")
                assert _result_bytes(got) == _result_bytes(expected)
            assert not uncached_windows(engine, runs(17)) + uncached_windows(engine, runs(8, 9))
            self._declines((router, engine), monkeypatch, [
                ("fallback", lambda: engine.cached_route(runs(17), "model-cover")),
                ("fallback", lambda: engine.cached_route(runs(8, 9), "model-cover")),
            ])  # fmt: skip

    def test_an_empty_owner_run_reports_each_shard_it_scanned(self, small_batch):
        """The run's queries scanned every row of the window: each shard
        with rows there is charged the run's queries, at its rows per
        query — the naive scan's units."""
        router = _lane_router(small_batch)
        with ShardedQueryEngine(router) as engine:
            batch = _covered_route(router, small_batch, min_groups=2)
            mixed, point = _with_empty_owner(router, batch, k=3)
            engine.continuous_query_batch(mixed, method="model-cover")
            c = router.window_for_time(point[0])
            if uncached_windows(engine, mixed):
                cache_rows(engine, c)
            before = router.shard_load_stats()
            assert engine.cached_route(mixed, "model-cover") is not None
            after = router.shard_load_stats()
            rows = [router.shard_window_sketch(s, c).n_rows for s in range(router.n_shards)]
            queries = [3 * (n_rows > 0) for n_rows in rows]
            units = [3.0 * n_rows for n_rows in rows]
            owners = router.grid.shards_of(batch.x, batch.y).tolist()
            for s, w in zip(owners, router.windows_for_times(batch.t).tolist()):
                queries[s] += 1  # a cover run: its own rows, at the slice's size
                units[s] += max(router.shard_window_sketch(s, w).n_rows, 1)
            assert [b.scan_queries - a.scan_queries for a, b in zip(before, after)] == queries
            assert [b.scan_units - a.scan_units for a, b in zip(before, after)] == units

    def test_a_missing_or_stale_cover_declines(self, small_batch, monkeypatch, tmp_path):
        for data_dir in (None, tmp_path):
            router = _lane_router(small_batch, data_dir, memory_windows=1)
            _t, x, y, tail = _open_window_probe(router, small_batch)
            t = float(small_batch.t[_LANE_CUT - 1])
            batch = QueryBatch([t - 1.0, t], [x, x + 1.0], [y, y])
            with ShardedQueryEngine(router) as engine:
                lane = (router, engine)
                # Cold: nothing is cached yet.
                self._declines(lane, monkeypatch, [
                    ("cover", lambda: engine.cached_route(batch, "model-cover")),
                ])  # fmt: skip
                monkeypatch.undo()
                engine.continuous_query_batch(batch, method="model-cover")
                assert engine.cached_route(batch, "model-cover") is not None
                # Stale: the owner's slice of the open window grew.
                router.ingest(tail)
                self._declines(lane, monkeypatch, [
                    ("cover", lambda: engine.cached_route(batch, "model-cover")),
                ])  # fmt: skip
                monkeypatch.undo()
                refit = engine.continuous_query_batch(batch, method="model-cover")
                got = engine.cached_route(batch, "model-cover")
                assert _result_bytes(got) == _result_bytes(refit)
            if data_dir is not None:
                router.close()

    def test_an_evicted_cover_declines_and_hits_count_all_or_nothing(self, small_batch):
        router = _lane_router(small_batch)
        batch = _covered_route(router, small_batch, min_groups=2)
        with ShardedQueryEngine(router, cache_capacity=1) as engine:
            engine.continuous_query_batch(batch, method="model-cover")  # one cover left
            before = engine.cache_stats.as_dict()
            assert engine.cached_route(batch, "model-cover") is None
            assert engine.cache_stats.as_dict() == before
            assert engine.lane_declines == {("route", "cover"): 1}

    def test_a_recut_in_flight_declines(self, small_batch, monkeypatch):
        """A split landing between the cover probe and the grid check is
        a decline, even one that re-cuts a shard the route does not touch
        — whose covers then still hit, their slices' stamps unchanged."""
        router = _lane_router(small_batch)
        batch = _covered_route(router, small_batch)
        with ShardedQueryEngine(router) as engine:
            expected = engine.continuous_query_batch(batch, method="model-cover")
            real_peek = engine.processor_cache.peek
            owners = {s for s, _c in _groups(router, batch)}
            other = min(set(range(router.n_shards)) - owners)
            split = []

            def peek_then_split(*args, **kwargs):
                found = real_peek(*args, **kwargs)
                if not split:  # lands between the first probe and the check
                    split.append(router.split_shard(other))
                return found

            monkeypatch.setattr(engine.processor_cache, "peek", peek_then_split)
            assert engine.cached_route(batch, "model-cover") is None
            assert engine.lane_declines == {("route", "recut"): 1}
            monkeypatch.undo()
            got = engine.cached_route(batch, "model-cover")
            assert _result_bytes(got) == _result_bytes(expected)
            after = engine.continuous_query_batch(batch, method="model-cover")
            assert _result_bytes(after) == _result_bytes(expected)
            # The point lane checks the grid last too.
            real_point_peek = engine.processor_cache.peek

            def point_peek_then_merge(*args, **kwargs):
                found = real_point_peek(*args, **kwargs)
                router.merge_cell(router.grid.cell_of_shard(other))
                return found

            monkeypatch.setattr(engine.processor_cache, "peek", point_peek_then_merge)
            p = (float(batch.t[0]), float(batch.x[0]), float(batch.y[0]))
            assert engine.cached_point(*p, "model-cover") is None
            assert engine.lane_declines["point", "recut"] == 1

    def test_never_waits_for_the_router_lock(self, route_lane, small_batch):
        router, engine = route_lane
        batch = _covered_route(router, small_batch, min_groups=2)
        expected = engine.continuous_query_batch(batch, method="model-cover")
        held, release = threading.Event(), threading.Event()

        def hold():
            with router._lock:
                held.set()
                release.wait(timeout=30.0)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(timeout=10.0)
        answers = []
        reader = threading.Thread(
            target=lambda: answers.append(engine.cached_route(batch, "model-cover")),
            daemon=True,
        )
        try:
            reader.start()
            reader.join(timeout=10.0)
            assert not reader.is_alive(), "the route lane waited for the router lock"
        finally:
            release.set()
            holder.join(timeout=10.0)
        assert _result_bytes(answers[0]) == _result_bytes(expected)

    def test_counters_lose_no_update_under_threads(self, small_batch):
        """More reader threads than cores, a short switch interval: every
        hit and decline of both lanes is counted once."""
        router = _lane_router(small_batch)
        batch = _covered_route(router, small_batch, min_groups=2)
        n_covers = len(_groups(router, batch))
        t, x, y = float(batch.t[0]), float(batch.x[0]), float(batch.y[0])
        with ShardedQueryEngine(router) as engine:
            engine.continuous_query_batch(batch, method="model-cover")
            hits = engine.cache_stats.hits
            rounds, n_threads = 300, 6

            def read():
                for _ in range(rounds):
                    assert engine.cached_route(batch, "model-cover") is not None
                    assert engine.cached_point(t, x, y, "model-cover") is not None
                    assert engine.cached_route(batch, "naive") is None

            threads = [threading.Thread(target=read, daemon=True) for _ in range(n_threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(th.is_alive() for th in threads)
            calls = rounds * n_threads
            assert engine.lane_hits == {"route": calls, "point": calls}
            assert engine.lane_declines == {("route", "method"): calls}
            assert engine.cache_stats.hits == hits + calls * (n_covers + 1)

    def test_the_point_lane_counts_too(self, small_batch):
        router = _lane_router(small_batch)
        t, x, y, tail = _open_window_probe(router, small_batch)
        with ShardedQueryEngine(router) as engine:
            assert engine.cached_point(t, x, y, "naive") is None
            assert engine.cached_point(t, math.nan, y, "model-cover") is None
            assert engine.cached_point(t, x, y, "model-cover") is None  # cold
            engine.point_query(t, x, y, method="model-cover")
            assert engine.cached_point(t, x, y, "model-cover") is not None
            assert engine.cached_point(t, x, y, "model-cover") is not None
            router.ingest(tail)
            assert engine.cached_point(t, x, y, "model-cover") is None  # stale
            assert engine.lane_hits == {"point": 2}
            assert engine.lane_declines == {
                ("point", "method"): 1,
                ("point", "non-finite"): 1,
                ("point", "cover"): 2,
            }
        with ShardedQueryEngine(_lane_router(small_batch, rows=0)) as engine:
            assert engine.cached_point(t, x, y, "model-cover") is None
            assert engine.cached_route(QueryBatch([t], [x], [y]), "model-cover") is None
            assert engine.lane_declines == {("point", "empty"): 1, ("route", "empty"): 1}
