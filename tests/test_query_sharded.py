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

from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple, TupleBatch
from repro.geo.coords import BoundingBox
from repro.query.base import BatchResult, QueryBatch
from repro.query.engine import QueryEngine
from repro.query.planner import QueryProfile
from repro.query.sharded import SHARDED_METHODS, ShardedQueryEngine
from repro.geo.region import RegionGrid
from repro.server.async_server import EngineQueryService
from repro.storage.shards import ShardRouter, StaleLayoutError
from repro.storage.tiered import TieredShardRouter

from reference_gather import merge_hit_partials, scan_hits


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
    def test_matches_unsharded_naive(self, engine, small_batch, t_mid):
        unsharded = QueryEngine(small_batch, h=240, radius_m=1000.0)
        c = unsharded.window_for_time(t_mid)
        proc = unsharded.processor("naive", c)
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


class TestHeatmap:
    def test_shape_and_agreement_with_unsharded(self, engine, small_batch, t_mid):
        bounds = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
        grid = engine.heatmap_grid(t_mid, bounds, nx=16, ny=12, method="naive")
        assert grid.shape == (12, 16)
        unsharded = QueryEngine(small_batch, h=240, radius_m=1000.0)
        expected = unsharded.heatmap_grid(t_mid, bounds, nx=16, ny=12, method="naive")
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


class TestPlannerIntegration:
    def test_auto_consults_planner_per_shard(self, router, t_mid):
        engine = ShardedQueryEngine(
            router,
            radius_m=1000.0,
            profile=QueryProfile(expected_queries=100_000, radius_m=1000.0),
        )
        engine.point_query(t_mid, 2500.0, 1800.0, method="auto")
        c = router.window_for_time(t_mid)
        owner = router.grid.shard_of(2500.0, 1800.0)
        stamp = router.shard_window_epoch(owner, c)
        sub = router.shard_window(owner, c)
        planned = engine._planned_method(owner, c, exact=False, stamp=stamp, sub=sub)
        assert planned in ("naive", "rtree", "vptree", "model-cover")
        # A long workload over a populated shard amortises the fit.
        if len(router.shard_window(owner, c)) >= 16:
            assert planned == "model-cover"

    def test_auto_exact_profile_stays_raw(self, router, t_mid):
        engine = ShardedQueryEngine(
            router,
            radius_m=1000.0,
            profile=QueryProfile(
                expected_queries=100_000, needs_exact_average=True, radius_m=1000.0
            ),
        )
        res = engine.point_query(t_mid, 2500.0, 1800.0, method="auto")
        exact = engine.point_query(t_mid, 2500.0, 1800.0, method="naive")
        assert res.value == exact.value
        assert res.support == exact.support

    def test_single_query_profile_plans_naive(self, router, t_mid):
        engine = ShardedQueryEngine(
            router,
            radius_m=1000.0,
            profile=QueryProfile(expected_queries=1, radius_m=1000.0),
        )
        c = router.window_for_time(t_mid)
        owner = router.grid.shard_of(2500.0, 1800.0)
        stamp = router.shard_window_epoch(owner, c)
        sub = router.shard_window(owner, c)
        if len(sub):
            assert (
                engine._planned_method(owner, c, exact=False, stamp=stamp, sub=sub)
                == "naive"
            )


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
        for method in ("vptree", "model-cover", "auto"):
            engine.point_query(*q, method=method)  # warm caches on 100 rows
        exact_auto = ShardedQueryEngine(
            router,
            radius_m=1500.0,
            profile=QueryProfile(needs_exact_average=True, radius_m=1500.0),
        )
        exact_auto.point_query(*q, method="auto")  # warm on 100 rows too
        router.ingest(small_batch.slice(100, 220))  # same window grows
        fresh = engine.point_query(*q, method="naive")
        assert fresh.support > 0
        for method in ("vptree", "kdtree"):
            res = engine.point_query(*q, method=method)
            assert res.support == fresh.support, method
            assert res.value == fresh.value, method
        auto = exact_auto.point_query(*q, method="auto")
        assert auto.support == fresh.support
        assert auto.value == fresh.value
        mc = engine.point_query(*q, method="model-cover")
        # The owner's cover must now be fitted on the grown slice: its
        # prediction is a model answer (support 1) from a fresh fit, not
        # the 100-row cover (different fits disagree on this workload) —
        # at minimum the query stays answered and no stale index crashes.
        assert mc.answered


_LANE_H = 240
#: Rows ingested before a lane test starts: 20 sealed windows plus 100
#: rows of an open one, so the held-back tail can grow window 20.
_LANE_CUT = 20 * _LANE_H + 100


def _lane_router(small_batch, data_dir=None, rows=_LANE_CUT):
    """A 4-shard router holding the first ``rows`` tuples: resident, or
    — given a ``data_dir`` — over segment files with 4 sealed slices
    kept in memory, so most plan-path reads fault in."""
    grid = RegionGrid.for_shard_count(BoundingBox(0.0, 0.0, 6000.0, 4000.0), 4)
    if data_dir is None:
        router = ShardRouter(grid, h=_LANE_H)
    else:
        router = TieredShardRouter(
            grid, h=_LANE_H, data_dir=data_dir, memory_windows=4
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

        # The first pass also warms: every cover the stream needs is cached.
        expected = [json.dumps(slow(p)) for p in points]
        hits = 0
        for p, want in zip(points, expected):
            got = service.cached("point", p)
            if got is None:
                # Only the exact fallback's case is left to the plan path.
                c = router.window_for_time(p["t"])
                s = router.grid.shard_of(p["x"], p["y"])
                assert router.shard_window_epoch(s, c) == 0
            else:
                hits += 1
                assert json.dumps(got) == want
            assert json.dumps(service.point(p)) == want
        assert hits > 1500

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
        the lane serves it — byte-identically, and routing never warns
        (the plan path's vector cover evaluation overflows to inf there,
        which numpy reports; that is not the routing's)."""
        router, engine = lane
        t = float(small_batch.t[_LANE_CUT - 1])
        service = EngineQueryService(engine, method="model-cover")
        hits = 0
        for x, y in [(1e300, 2000.0), (-1e300, 2000.0), (3000.0, 1e300), (1e300, -1e300)]:
            params = {"t": t, "x": x, "y": y}
            slow = service._point(engine.point_query, params)  # the plan path
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                s = router.grid.shard_of(x, y)
                assert s == int(router.route(TupleBatch([t], [x], [y], [0.0]))[0])
                got = service.cached("point", params)
            if router.shard_window_epoch(s, router.window_for_time(t)):
                hits += 1
                assert json.dumps(got) == json.dumps(slow)
            else:
                assert got is None  # an empty owner slice: the exact fallback's
        assert hits

    @pytest.mark.parametrize("method", ["naive", "grid", "auto"])
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

        def read():
            while not stop.is_set():
                for answers, p in zip(valid, probes):
                    got = engine.cached_point(*p, "model-cover")
                    if got is not None:
                        hits[0] += 1
                        if got.value not in answers:
                            wrong.append((p, got.value))

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
