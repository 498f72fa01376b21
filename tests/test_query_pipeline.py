"""Tests for the unified execution-plan pipeline (``repro/query/pipeline``).

Covers the one epoch-keyed :class:`ProcessorCache` (both build
disciplines, stale accounting, aggregation), the plan IR and its
builders (shapes, contexts, fallbacks, ``format_plan``), the
statistics-backed planner's feedback loop (recalibration among exact
methods only — the exact-vs-model boundary must stay deterministic), the
uniform server counters, and the ``auto``-is-never-the-worst performance
contract recalibrated against the benchmark scenarios.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.network.messages import ModelRequest, QueryRequest
from repro.query.base import QueryBatch
from repro.query.pipeline import (
    CacheStats,
    CoverOp,
    FallbackOp,
    PlannerFeedback,
    PlanReport,
    ProcessorCache,
    ScanOp,
    format_plan,
)
from repro.query.planner import PlanEstimate, QueryProfile
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter

from one_shard import grow, one_shard_engine, protocol_service

BBOX = BoundingBox(0.0, 0.0, 6000.0, 4000.0)


def make_stream(rng: np.random.Generator, n: int) -> TupleBatch:
    t = np.cumsum(rng.uniform(1.0, 30.0, n))
    return TupleBatch(
        t,
        rng.uniform(0.0, 6000.0, n),
        rng.uniform(0.0, 4000.0, n),
        rng.uniform(350.0, 600.0, n),
    )


class TestProcessorCache:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            ProcessorCache(0)

    def test_build_serves_and_counts(self):
        cache = ProcessorCache(4)
        built = []

        def build():
            built.append(1)
            return "value"

        assert cache.get_or_build(("k",), 0, build) == "value"
        assert cache.get_or_build(("k",), 0, build) == "value"
        assert len(built) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.stale == 0

    def test_stale_stamp_rebuilds_and_counts(self):
        cache = ProcessorCache(4)
        cache.get_or_build(("k",), 0, lambda: "old")
        assert cache.get_or_build(("k",), 1, lambda: "new") == "new"
        assert cache.stats.stale == 1
        assert cache.stats.misses == 2  # stale lookups are misses too
        assert cache.stats.lookups == cache.stats.hits + cache.stats.misses
        # The stale entry was replaced in place, not duplicated.
        assert len(cache) == 1
        assert cache.entry_stamp(("k",)) == 1

    def test_lru_eviction_order_and_counter(self):
        cache = ProcessorCache(2)
        for i in range(4):
            cache.get_or_build(("k", i), 0, lambda i=i: i)
        assert cache.keys() == [("k", 2), ("k", 3)]
        assert cache.stats.evictions == 2

    def test_racing_build_duplicate_is_discarded(self):
        cache = ProcessorCache(4)
        first = cache.get_or_build(("k",), 0, lambda: object())
        # A racing builder inserting at the same stamp loses: the winner
        # stays cached and is returned to the loser.
        assert cache.insert(("k",), 0, object()) is first
        assert cache.get_or_build(("k",), 0, lambda: object()) is first

    def test_parallel_builds_of_distinct_keys(self):
        cache = ProcessorCache(64)
        barrier = threading.Barrier(8)
        errors = []

        def worker(seed):
            try:
                barrier.wait()
                for i in range(30):
                    v = cache.get_or_build(
                        ("k", (seed + i) % 12), 0, lambda: object()
                    )
                    assert v is cache.get_or_build(
                        ("k", (seed + i) % 12), 0, lambda: object()
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 12

    def test_concurrent_misses_of_one_entry_build_once(self):
        cache = ProcessorCache(4)
        barrier = threading.Barrier(6)
        started = threading.Event()
        release = threading.Event()
        built, got = [], []

        def build():
            built.append(1)
            started.set()
            release.wait(timeout=10)
            return object()

        def worker():
            barrier.wait()
            got.append(cache.get_or_build(("cover", 0, 1), 7, build))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        assert started.wait(timeout=10)
        release.set()
        for t in threads:
            t.join()
        assert len(built) == 1
        assert all(v is got[0] for v in got)
        assert cache.stats.lookups == 6

    def test_waiter_builds_itself_when_the_build_fails(self):
        cache = ProcessorCache(4)
        started = threading.Event()
        release = threading.Event()

        def failing():
            started.set()
            release.wait(timeout=10)
            raise RuntimeError("fit failed")

        errors = []

        def leader():
            try:
                cache.get_or_build(("k",), 0, failing)
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=leader)
        thread.start()
        assert started.wait(timeout=10)
        waiter_result = []
        waiter = threading.Thread(
            target=lambda: waiter_result.append(
                cache.get_or_build(("k",), 0, lambda: "rebuilt")
            )
        )
        waiter.start()
        # Once the waiter's lookup has missed, the failing build is still
        # in flight, so the waiter is (or is about to be) waiting on it.
        deadline = time.monotonic() + 10
        while cache.stats.misses < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        thread.join()
        waiter.join()
        assert len(errors) == 1
        assert waiter_result == ["rebuilt"]
        assert cache.peek(("k",), 0) == "rebuilt"

    def test_other_stamps_of_a_key_do_not_wait(self):
        """Only one ``(key, stamp)`` is single-flight: a reader pinned at
        another stamp builds its own entry while the first build runs."""
        cache = ProcessorCache(4)
        started = threading.Event()
        release = threading.Event()

        def slow():
            started.set()
            release.wait(timeout=10)
            return "old"

        thread = threading.Thread(target=lambda: cache.get_or_build(("k",), 1, slow))
        thread.start()
        assert started.wait(timeout=10)
        try:
            assert cache.get_or_build(("k",), 2, lambda: "new") == "new"
        finally:
            release.set()
            thread.join()
        assert cache.peek(("k",), 2) == "new"  # never moved backwards

    def test_older_stamp_insert_keeps_newer_entry(self):
        cache = ProcessorCache(4)
        cache.get_or_build(("k",), 5, lambda: "new")
        # An older-snapshot caller must get its own build back while the
        # fresher entry stays cached for future readers (no ping-pong).
        assert cache.insert(("k",), 3, "old") == "old"
        assert cache.peek(("k",), 5) == "new"
        assert cache.peek(("k",), 3) is None

    def test_stats_aggregate(self):
        a = CacheStats(hits=2, misses=3, evictions=1, stale=1)
        b = CacheStats(hits=1, misses=1)
        total = CacheStats.aggregate([a, b])
        assert (total.hits, total.misses, total.evictions, total.stale) == (3, 4, 1, 1)
        assert total.as_dict()["stale"] == 1


class TestProcessorCacheLRU:
    """The bound, eviction order, rebuilds and counters of the one LRU."""

    @staticmethod
    def touch(cache, *windows, stamp=0):
        return [cache.get_or_build(("index", 0, c), stamp, object) for c in windows]

    def test_cache_never_exceeds_capacity(self):
        cache = ProcessorCache(3)
        for c in range(10):
            self.touch(cache, c)
            assert len(cache.keys()) <= 3
        assert cache.stats.evictions == 7

    def test_capacity_one(self):
        cache = ProcessorCache(1)
        self.touch(cache, 0, 1)
        assert cache.keys() == [("index", 0, 1)]

    def test_hit_refreshes_recency(self):
        cache = ProcessorCache(2)
        self.touch(cache, 0, 1, 0, 2)  # 0 is re-used, so 1 is evicted
        assert cache.keys() == [("index", 0, 0), ("index", 0, 2)]

    def test_evicted_entry_is_rebuilt_and_same_object_on_hit(self):
        cache = ProcessorCache(1)
        (first,) = self.touch(cache, 0)
        assert self.touch(cache, 0) == [first]
        self.touch(cache, 1)  # evicts window 0
        (rebuilt,) = self.touch(cache, 0)
        assert rebuilt is not first

    def test_hit_miss_counters_and_snapshot(self):
        cache = ProcessorCache(4)
        stats = cache.stats
        assert stats.lookups == 0
        self.touch(cache, 0, 0, 1, 0)  # miss, hit, miss, hit
        assert (stats.misses, stats.hits, stats.evictions) == (2, 2, 0)
        assert stats.hit_rate == pytest.approx(0.5)
        snap = stats.as_dict()
        assert (snap["hits"], snap["misses"]) == (2, 2)
        assert snap["hit_rate"] == pytest.approx(0.5)
        stats.reset()
        assert stats.lookups == 0

    def test_concurrent_lookups_stay_bounded(self):
        """Hammer the cache from several threads; the bound and the
        counters must stay coherent (lookups and builds run under the
        cache lock)."""
        cache = ProcessorCache(3)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(40):
                    self.touch(cache, int(rng.integers(0, 6)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache.keys()) <= 3
        assert cache.stats.hits + cache.stats.misses == 8 * 40


class TestPlannerFeedback:
    def test_empty_feedback_is_static_model(self):
        fb = PlannerFeedback()
        est = {
            "naive": PlanEstimate("naive", 100.0, 0.0),
            "vptree": PlanEstimate("vptree", 50.0, 10.0),
        }
        assert fb.adjust(est) == {"naive": 100.0, "vptree": 50.0}

    def test_observed_costs_rerank_exact_methods(self):
        fb = PlannerFeedback(alpha=1.0)
        est = {
            "naive": PlanEstimate("naive", 100.0, 0.0),
            "vptree": PlanEstimate("vptree", 50.0, 10.0),
        }
        # The model prefers vptree, but per its own units it measures
        # 200x slower than naive per naive's units.
        fb.observe("vptree", n_queries=10, elapsed_s=1.0, units_per_query=50.0)
        fb.observe("naive", n_queries=10, elapsed_s=0.01, units_per_query=100.0)
        adjusted = fb.adjust(est)
        assert adjusted["naive"] < adjusted["vptree"]

    def test_unobserved_methods_use_median_observed_rate(self):
        fb = PlannerFeedback(alpha=1.0)
        est = {
            "naive": PlanEstimate("naive", 100.0, 0.0),
            "vptree": PlanEstimate("vptree", 50.0, 10.0),
        }
        fb.observe("naive", n_queries=10, elapsed_s=1.0, units_per_query=100.0)
        adjusted = fb.adjust(est)
        # Both scores are estimated units x observed sec-per-unit, so the
        # slice's own unit estimate stays in the product (spu = 1e-3).
        assert adjusted["naive"] == pytest.approx(100.0 * 1e-3)
        assert adjusted["vptree"] == pytest.approx(50.0 * 1e-3)

    def test_rates_normalised_by_each_methods_own_units(self):
        """An index method's small unit estimate must not deflate its
        observed rate: a method measured slower per query on the same
        workload must score worse, whatever its unit scale."""
        fb = PlannerFeedback(alpha=1.0)
        est = {
            "naive": PlanEstimate("naive", 1000.0, 0.0),   # full scan
            "rtree": PlanEstimate("rtree", 20.0, 100.0),   # sparse hits
        }
        # Same workload: naive measured 0.5 ms/query, rtree 1 ms/query.
        fb.observe("naive", n_queries=100, elapsed_s=0.05, units_per_query=1000.0)
        fb.observe("rtree", n_queries=100, elapsed_s=0.10, units_per_query=20.0)
        adjusted = fb.adjust(est)
        # Scores reproduce the observed per-query ordering on this slice.
        assert adjusted["naive"] == pytest.approx(5e-4)
        assert adjusted["rtree"] == pytest.approx(1e-3)
        assert adjusted["naive"] < adjusted["rtree"]

    def test_feedback_never_moves_exact_vs_model_boundary(self):
        """Observed timings recalibrate scan kinds (answers identical by
        construction) but must never flip a window between exact and
        model answers — that would make query *answers* timing-dependent."""
        rng = np.random.default_rng(3)
        stream = make_stream(rng, 300)
        router = ShardRouter(RegionGrid.for_shard_count(BBOX, 4), h=64)
        router.ingest(stream)
        engine = ShardedQueryEngine(router, radius_m=900.0)
        queries = QueryBatch(
            np.linspace(float(stream.t[10]), float(stream.t[-1]), 40),
            rng.uniform(0, 6000, 40),
            rng.uniform(0, 4000, 40),
        )
        baseline = engine.continuous_query_batch(queries, method="auto")
        # Poison the feedback with absurd observations for every method.
        for method in ("naive", "vptree", "rtree", "model-cover"):
            engine.planner.feedback.observe(method, 1, 1000.0)
        engine.planner.feedback.observe("naive", 1, 1e-9)
        # Fresh verdicts (fresh cache so plans are re-planned from scratch).
        fresh = ShardedQueryEngine(router, radius_m=900.0)
        fresh._planner.feedback = engine.planner.feedback
        again = fresh.continuous_query_batch(queries, method="auto")
        np.testing.assert_array_equal(baseline.values, again.values)
        np.testing.assert_array_equal(baseline.support, again.support)


class TestPlanShapes:
    def test_server_plan_is_one_cover_op_per_window(self):
        rng = np.random.default_rng(11)
        stream = make_stream(rng, 200)
        server = protocol_service(h=40)
        server.ingest(stream)
        engine = server.engine
        binding = engine.binding()
        ts = np.array([float(stream.t[5]), float(stream.t[50]), float(stream.t[150])])
        queries = QueryBatch(ts, np.full(3, 2000.0), np.full(3, 1500.0))
        plan = engine.plan(queries, "model-cover", binding=binding)
        assert plan.merge is None and plan.method == "model-cover"
        assert [op.context.window_c for op in plan.ops] == [0, 1, 3]
        for op in plan.ops:
            assert isinstance(op, CoverOp)
            assert op.context.shard == 0
            c = op.context.window_c
            assert op.context.n_rows == len(binding.slice_for(0, c)[1]) == 40

    def test_sharded_exact_plan_is_merge_shaped(self):
        rng = np.random.default_rng(12)
        stream = make_stream(rng, 200)
        router = ShardRouter(RegionGrid.for_shard_count(BBOX, 4), h=64)
        router.ingest(stream)
        engine = ShardedQueryEngine(router, radius_m=900.0)
        queries = QueryBatch(
            np.full(5, float(stream.t[-1])),
            np.linspace(500.0, 5500.0, 5),
            np.full(5, 2000.0),
        )
        plan = engine.plan(queries, "naive")
        assert plan.merge is not None
        assert plan.merge.n_queries == 5
        assert all(isinstance(op, ScanOp) and op.emit == "hits" for op in plan.ops)
        shards = {op.context.shard for op in plan.ops}
        assert shards <= set(range(4))

    def test_cover_plan_fallback_for_empty_region(self):
        rng = np.random.default_rng(13)
        n = 64
        t = np.cumsum(rng.uniform(1.0, 60.0, n))
        stream = TupleBatch(  # west half only: east shard is empty
            t,
            rng.uniform(0.0, 2500.0, n),
            rng.uniform(0.0, 4000.0, n),
            rng.uniform(350.0, 600.0, n),
        )
        router = ShardRouter(RegionGrid(BBOX, nx=2, ny=1), h=32)
        router.ingest(stream)
        engine = ShardedQueryEngine(router, radius_m=3500.0)
        queries = QueryBatch(
            np.full(3, float(stream.t[-1])),
            np.array([4000.0, 5000.0, 5500.0]),
            np.full(3, 2000.0),
        )
        plan = engine.plan(queries, "model-cover")
        fallbacks = [op for op in plan.ops if isinstance(op, FallbackOp)]
        assert len(fallbacks) == 1
        assert fallbacks[0].plan.merge is not None  # exact sub-plan
        assert len(fallbacks[0].positions) == 3
        assert not [op for op in plan.ops if isinstance(op, CoverOp)]

    def test_format_plan_lists_every_op(self):
        rng = np.random.default_rng(14)
        stream = make_stream(rng, 150)
        engine = one_shard_engine(stream, h=40, radius_m=900.0)
        queries = QueryBatch(
            np.linspace(float(stream.t[0]), float(stream.t[-1]), 6),
            np.full(6, 2000.0),
            np.full(6, 1500.0),
        )
        plan = engine.plan(queries, "auto", want_estimates=True)
        report = PlanReport()
        engine.execute(plan, report)
        text = format_plan(plan, report)
        assert "plan: method=auto" in text
        assert text.count("\n") >= len(plan.ops) + 1
        assert "ms" in text  # observed timings rendered
        for _, op in plan.walk():
            if not isinstance(op, FallbackOp):
                assert op.context.describe() in text

    def test_plan_report_total_and_per_op(self):
        rng = np.random.default_rng(15)
        stream = make_stream(rng, 100)
        engine = one_shard_engine(stream, h=50, radius_m=900.0)
        queries = QueryBatch(
            np.full(4, float(stream.t[-1])), np.full(4, 1000.0), np.full(4, 1000.0)
        )
        plan = engine.plan(queries, "naive")
        report = PlanReport()
        engine.execute(plan, report)
        assert report.total_s > 0.0
        assert all(report.observed(op) is not None for op in plan.ops)


class TestEngineAuto:
    def test_one_shard_auto_matches_planned_fixed_method(self):
        """Auto must answer exactly like the fixed method the planner
        picked for each window."""
        rng = np.random.default_rng(21)
        stream = make_stream(rng, 240)
        engine = one_shard_engine(
            stream, h=60, radius_m=900.0,
            profile=QueryProfile(needs_exact_average=True, radius_m=900.0),
        )
        queries = QueryBatch(
            np.linspace(float(stream.t[0]), float(stream.t[-1]), 30),
            rng.uniform(0, 6000, 30),
            rng.uniform(0, 4000, 30),
        )
        plan = engine.plan(queries, "auto")
        auto = engine.execute(plan)
        # Re-answer each op's queries with its concrete planned method.
        for op in plan.ops:
            fixed = engine.continuous_query_batch(op.queries, method=op.method)
            np.testing.assert_array_equal(auto.values[op.positions], fixed.values)
            np.testing.assert_array_equal(auto.support[op.positions], fixed.support)

    def test_auto_rejects_without_known_method(self):
        rng = np.random.default_rng(22)
        engine = one_shard_engine(make_stream(rng, 50), h=50)
        with pytest.raises(ValueError, match="unknown method"):
            engine.continuous_query_batch(
                QueryBatch(np.array([1.0]), np.array([0.0]), np.array([0.0])),
                method="bogus",
            )


class TestServerCounters:
    def make_server(self, rng):
        stream = make_stream(rng, 200)
        server = protocol_service(h=50)
        server.ingest(stream)
        return server, stream

    def test_uniform_cache_counters(self):
        rng = np.random.default_rng(31)
        server, stream = self.make_server(rng)
        reqs = [
            QueryRequest(t=float(stream.t[-1]), x=2000.0 + 100 * i, y=1500.0)
            for i in range(6)
        ]
        server.handle_many(reqs)
        server.handle_many(reqs)
        stats = server.engine.cache_stats
        snap = stats.as_dict()
        assert set(snap) == {"hits", "misses", "evictions", "stale", "hit_rate"}
        assert stats.lookups == stats.hits + stats.misses
        assert stats.hits > 0  # second pass served from the cover memo

    def test_served_covers_are_the_engine_cache_entries(self):
        rng = np.random.default_rng(32)
        server, stream = self.make_server(rng)
        reqs = [
            QueryRequest(t=float(stream.t[-1]), x=1000.0 * i, y=1200.0)
            for i in range(4)
        ]
        server.handle_many(reqs)
        cache = server.engine.processor_cache
        assert list(cache.keys()) == [("cover", 0, 3)]
        server.handle(ModelRequest(t=float(stream.t[-1]), x=0.0, y=0.0))
        assert server.engine.cache_stats.misses == 1

    def test_server_cover_memo_stale_on_ingest(self):
        rng = np.random.default_rng(33)
        stream = make_stream(rng, 120)
        server = protocol_service(h=50)
        server.ingest(stream.slice(0, 110))  # window 2 stays open
        t_open = float(stream.t[105])
        server.handle(QueryRequest(t=t_open, x=2000.0, y=1500.0))
        server.ingest(stream.slice(110, 120))  # window 2 grows
        server.handle(QueryRequest(t=t_open, x=2000.0, y=1500.0))
        assert server.engine.cache_stats.stale >= 1


class TestAutoNeverSlower:
    """Satellite contract: on the benchmark scenarios, ``auto``'s plan
    must not be priced above the *worst* fixed method's plan.

    The planner's whole job is to stay off the worst method.  Compared
    on the planner's own estimates (scan units per query, summed over
    the plan's ops), so the verdict is a pure function of the data.  The
    wall-clock form of the same contract (best-of timing, 1.5x margin)
    runs in ``benchmarks/bench_sharded.py``.
    """

    FIXED = ("naive", "vptree", "model-cover")

    @staticmethod
    def _planned_cost(plan) -> float:
        ops = [op for _, op in plan.walk() if isinstance(op, (ScanOp, CoverOp))]
        assert ops and all(op.est_unit_cost is not None for op in ops)
        return sum(op.est_unit_cost * len(op.queries) for op in ops)

    def _costs(self, plan_for):
        return {m: self._planned_cost(plan_for(m)) for m in self.FIXED + ("auto",)}

    def test_auto_heatmap_not_costlier_than_worst_fixed(self):
        rng = np.random.default_rng(41)
        stream = make_stream(rng, 3000)
        engine = one_shard_engine(stream, h=240, radius_m=900.0, max_workers=1)
        probes = QueryBatch.from_grid(
            float(stream.t[-1]), BBOX.min_x, BBOX.min_y, BBOX.width, BBOX.height, 30, 20
        )
        costs = self._costs(lambda m: engine.plan(probes, m, want_estimates=True))
        assert costs["auto"] <= max(costs[m] for m in self.FIXED), costs

    def test_auto_sharded_continuous_not_costlier_than_worst_fixed(self):
        rng = np.random.default_rng(42)
        stream = make_stream(rng, 3000)
        router = ShardRouter(RegionGrid.for_shard_count(BBOX, 4), h=240)
        router.ingest(stream)
        engine = ShardedQueryEngine(router, radius_m=900.0, max_workers=1)
        queries = QueryBatch(
            np.linspace(float(stream.t[0]), float(stream.t[-1]), 600),
            rng.uniform(0, 6000, 600),
            rng.uniform(0, 4000, 600),
        )
        costs = self._costs(lambda m: engine.plan(queries, m, want_estimates=True))
        assert costs["auto"] <= max(costs[m] for m in self.FIXED), costs


class TestIngestRaceSafety:
    """A binding pins what it resolved: a plan built before an ingest
    executes against the old rows under the old stamps, so the shared
    cache is never poisoned with a stale processor under a fresh
    stamp."""

    def test_binding_pins_rows_and_stamps_across_ingest(self):
        rng = np.random.default_rng(51)
        H = 40
        stream = make_stream(rng, 2 * H + 20)
        engine = one_shard_engine(stream.slice(0, H + 5), h=H, radius_m=1500.0)
        binding = engine.binding()
        stamp, sub, _ = binding.slice_for(0, 1)
        assert len(sub) == 5
        grow(engine, stream, H + 25)  # grows open window 1
        assert engine.router.shard_window_epoch(0, 1) > stamp
        again = binding.slice_for(0, 1)
        assert again[0] == stamp  # the pinned stamp...
        assert len(again[1]) == 5  # ...with the pinned rows

    def test_pre_ingest_plan_does_not_poison_cache(self):
        rng = np.random.default_rng(52)
        H = 40
        stream = make_stream(rng, 2 * H)
        engine = one_shard_engine(stream.slice(0, H + 5), h=H, radius_m=2500.0)
        t_open = float(stream.t[H + 2])
        queries = QueryBatch(
            np.array([t_open]), np.array([3000.0]), np.array([2000.0])
        )
        plan = engine.plan(queries, "kdtree")
        grow(engine, stream, len(stream))  # window 1 grows from 5 to H rows
        stale_view = engine.execute(plan)  # correct for *its* pinned rows
        assert stale_view.support[0] <= 5
        # The grown engine answers from the grown window, identical to a
        # fresh engine over the same stream.
        after = engine.point_query(t_open, 3000.0, 2000.0, method="kdtree")
        oracle = one_shard_engine(stream, h=H, radius_m=2500.0).point_query(
            t_open, 3000.0, 2000.0, method="kdtree"
        )
        assert after.support == oracle.support
        assert after.value == oracle.value


class TestAutoFitRunsOnce:
    def test_auto_model_cover_verdict_reuses_pricing_fit(self, monkeypatch):
        """When the planner prices (and picks) model-cover, that fit must
        be the only one: execution serves the seeded processor instead of
        refitting the cover."""
        import repro.query.planner as planner_mod
        import repro.query.sharded as sharded_mod
        from repro.core.adkmn import fit_adkmn as real_fit

        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(planner_mod, "fit_adkmn", counting_fit)
        monkeypatch.setattr(sharded_mod, "fit_adkmn", counting_fit)
        rng = np.random.default_rng(71)
        # A smooth linear field fits with very few models, so the cost
        # model reliably prefers model-cover over the scan methods.
        n = 240
        x = rng.uniform(0.0, 6000.0, n)
        y = rng.uniform(0.0, 4000.0, n)
        stream = TupleBatch(
            np.cumsum(rng.uniform(1.0, 30.0, n)), x, y, 350.0 + x / 50.0 + y / 80.0
        )
        engine = one_shard_engine(
            stream, h=240, radius_m=2500.0,
            profile=QueryProfile(expected_queries=100_000, radius_m=2500.0),
        )
        queries = QueryBatch(
            np.full(8, float(stream.t[-1])),
            np.linspace(500.0, 5500.0, 8),
            np.full(8, 2000.0),
        )
        plan = engine.plan(queries, "auto")
        assert [op.method for op in plan.ops] == ["model-cover"]
        result = engine.execute(plan)
        assert result.n_answered == len(queries)
        assert len(calls) == 1  # the pricing fit, and nothing else


class TestOneShardAutoDeterminism:
    def test_feedback_never_changes_one_shard_auto_bytes(self):
        """On one shard too, auto answers are byte-identical however the
        feedback is poisoned."""
        rng = np.random.default_rng(81)
        stream = make_stream(rng, 240)
        queries = QueryBatch(
            np.linspace(float(stream.t[0]), float(stream.t[-1]), 40),
            rng.uniform(0, 6000, 40),
            rng.uniform(0, 4000, 40),
        )
        profile = QueryProfile(needs_exact_average=True, radius_m=900.0)
        baseline_engine = one_shard_engine(stream, h=60, radius_m=900.0, profile=profile)
        baseline = baseline_engine.continuous_query_batch(queries, method="auto")
        poisoned_engine = one_shard_engine(stream, h=60, radius_m=900.0, profile=profile)
        for method in ("naive", "vptree", "rtree", "model-cover"):
            poisoned_engine.planner.feedback.observe(method, 1, 1000.0)
        poisoned_engine.planner.feedback.observe("vptree", 1, 1e-9)
        poisoned = poisoned_engine.continuous_query_batch(queries, method="auto")
        np.testing.assert_array_equal(baseline.values, poisoned.values)
        np.testing.assert_array_equal(baseline.support, poisoned.support)


class TestEvalUnits:
    def test_eval_units_strips_amortised_preparation(self):
        from repro.query.pipeline import PipelinePlanner

        planner = PipelinePlanner(QueryProfile(expected_queries=100))
        est = PlanEstimate("rtree", per_query_cost=936.0, preparation_cost=93_600.0)
        # 936 total = 0 scan share? No: 936 - 93600/100 = 0 -> floored.
        assert planner.eval_units(est) == pytest.approx(1e-9)
        est2 = PlanEstimate("rtree", per_query_cost=1000.0, preparation_cost=50_000.0)
        # 1000 - 500 = 500 evaluation units actually run inside the timer.
        assert planner.eval_units(est2) == pytest.approx(500.0)
        naive = PlanEstimate("naive", per_query_cost=240.0, preparation_cost=0.0)
        assert planner.eval_units(naive) == pytest.approx(240.0)
