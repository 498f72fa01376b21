"""Tests for the unified execution-plan pipeline (``repro/query/pipeline``).

Covers the one epoch-keyed :class:`ProcessorCache` (both build
disciplines, stale accounting, aggregation), the plan IR and its
builders (shapes, contexts, model-cover runs, ``format_plan``), the
uniform server counters, and the binding's pin across ingest.
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
    PlanReport,
    ProcessorCache,
    ScanOp,
    format_plan,
)
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
        assert cache.stats.hits == 0
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
        assert cache.stats.hits + cache.stats.misses == 6

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

    def test_peek_all_and_count_hits_are_peek_per_key(self):
        """``peek_all`` is ``peek`` of every pair, counting nothing;
        ``count_hits`` is ``peek(..., count_hit=True)`` of every pair:
        a hit and an LRU refresh for each key still at its stamp, nothing
        for a missing or re-stamped one."""
        cache = ProcessorCache(4)
        for key, stamp in ((("a",), 1), (("b",), 2), (("c",), 3)):
            cache.insert(key, stamp, key[0])
        pairs = [(("a",), 1), (("b",), 9), (("z",), 1), (("c",), 3)]
        assert cache.peek_all(pairs) == ["a", None, None, "c"]
        assert cache.stats.as_dict()["hits"] == 0 and cache.stats.misses == 0
        assert cache.keys() == [("a",), ("b",), ("c",)]
        cache.count_hits([(("a",), 1), (("b",), 9), (("z",), 1)])
        assert cache.stats.hits == 1 and cache.stats.misses == 0
        assert cache.keys() == [("b",), ("c",), ("a",)]  # only "a" refreshed
        assert cache.peek_all([]) == []


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
        assert stats.as_dict() == {"hits": 0, "misses": 0, "evictions": 0, "stale": 0}
        self.touch(cache, 0, 0, 1, 0)  # miss, hit, miss, hit
        assert (stats.misses, stats.hits, stats.evictions) == (2, 2, 0)
        assert stats.as_dict() == {"hits": 2, "misses": 2, "evictions": 0, "stale": 0}

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


class TestPlanShapes:
    def test_model_cover_plan_answers_one_cover_run_per_window(self):
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
        assert plan.ops == () and plan.binding is binding and plan.queries is queries
        report = PlanReport()
        engine.execute(plan, report)
        assert [run.context.window_c for run in report.runs] == [0, 1, 3]
        for run in report.runs:
            assert run.kind == "cover" and run.n_queries == 1
            assert run.context.shard == 0
            c = run.context.window_c
            assert run.context.n_rows == len(binding.slice_for(0, c)[1]) == 40
            assert report.observed(run) is not None

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

    def test_an_empty_owner_is_answered_from_the_window_rows(self):
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
        report = PlanReport()
        got = engine.execute(engine.plan(queries, "model-cover"), report)
        [run] = report.runs
        assert run.kind == "rows" and run.n_queries == 3
        assert run.context.shard == 1 and run.context.stamp == 0
        assert run.context.n_rows == 32  # the whole window's rows
        exact = engine.continuous_query_batch(queries, method="naive")
        assert got.values.tobytes() == exact.values.tobytes()
        assert got.support.tobytes() == exact.support.tobytes()

    def test_format_plan_lists_every_op(self):
        rng = np.random.default_rng(14)
        stream = make_stream(rng, 150)
        engine = one_shard_engine(stream, h=40, radius_m=900.0)
        queries = QueryBatch(
            np.linspace(float(stream.t[0]), float(stream.t[-1]), 6),
            np.full(6, 2000.0),
            np.full(6, 1500.0),
        )
        plan = engine.plan(queries, "model-cover")
        report = PlanReport()
        engine.execute(plan, report)
        text = format_plan(plan, report)
        assert "plan: method=model-cover" in text
        assert f"runs={len(report.runs)}" in text
        assert text.count("\n") >= len(report.runs) + 1
        assert "ms" in text  # observed timings rendered
        for run in report.runs:
            assert run.context.describe() in text

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

    def test_unknown_method_is_rejected(self):
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
        assert set(stats.as_dict()) == {"hits", "misses", "evictions", "stale"}
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
        plan = engine.plan(queries, "naive")
        grow(engine, stream, len(stream))  # window 1 grows from 5 to H rows
        stale_view = engine.execute(plan)  # correct for *its* pinned rows
        assert stale_view.support[0] <= 5
        # The grown engine answers from the grown window, identical to a
        # fresh engine over the same stream.
        after = engine.point_query(t_open, 3000.0, 2000.0, method="naive")
        oracle = one_shard_engine(stream, h=H, radius_m=2500.0).point_query(
            t_open, 3000.0, 2000.0, method="naive"
        )
        assert after.support == oracle.support
        assert after.value == oracle.value
