"""Adaptive shard management: load stats, hot-region split/merge and
the rebalance policy loop.

The load-bearing discipline is byte-identity: the exact merge gather is
canonical in global stream position, so *any* layout of the same stream
— static grid, split downtown, merged back — must
answer every query with the same bytes.  Each mechanism here is tested
against that oracle; the policy loop is tested on seeded load shapes.
"""

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RefinedRegionGrid, RegionGrid
from repro.query.base import QueryBatch
from repro.query.sharded import ShardedQueryEngine
from repro.storage.load import ShardLoadTracker, skew_coefficient
from repro.storage.rebalance import RebalanceAction, ShardRebalancer
from repro.storage.shards import ShardRouter, StaleLayoutError

BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
H = 64


def make_stream(n: int, seed: int = 0, hot_cell_frac: float = 0.0) -> TupleBatch:
    """``n`` time-ordered tuples; ``hot_cell_frac`` of them packed into
    the first grid cell's lower-left quadrant (the "downtown" skew)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-500.0, 6500.0, n)  # includes out-of-bounds slabs
    y = rng.uniform(-500.0, 4500.0, n)
    hot = rng.random(n) < hot_cell_frac
    x[hot] = rng.uniform(0.0, 900.0, int(hot.sum()))
    y[hot] = rng.uniform(0.0, 800.0, int(hot.sum()))
    return TupleBatch(
        np.cumsum(rng.uniform(1.0, 5.0, n)),
        x, y, rng.uniform(350.0, 600.0, n),
    )


def make_queries(stream: TupleBatch, n: int, seed: int = 1) -> QueryBatch:
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(stream), n)
    return QueryBatch(
        stream.t[picks],
        stream.x[picks] + rng.normal(0.0, 200.0, n),
        stream.y[picks] + rng.normal(0.0, 200.0, n),
    )


def filled_router(stream: TupleBatch, nx=3, ny=2, h=H, make=ShardRouter) -> ShardRouter:
    router = make(RegionGrid(BOUNDS, nx=nx, ny=ny), h=h)
    router.ingest(stream)
    return router


def answers(engine: ShardedQueryEngine, queries: QueryBatch):
    return engine.execute(engine.plan(queries, "naive"))


def identical(a, b) -> bool:
    return (
        a.values.tobytes() == b.values.tobytes()
        and a.support.tobytes() == b.support.tobytes()
        and a.answered.tobytes() == b.answered.tobytes()
    )


class TestRefinedRegionGrid:
    def test_unsplit_refinement_routes_like_base(self):
        base = RegionGrid(BOUNDS, nx=3, ny=2)
        refined = RefinedRegionGrid.refine(base)
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2000.0, 8000.0, 500)  # far outside both edges
        ys = rng.uniform(-2000.0, 6000.0, 500)
        assert np.array_equal(refined.shards_of(xs, ys), base.shards_of(xs, ys))
        for r in (0.0, 150.0, 5000.0):
            assert np.array_equal(
                refined.disks_shard_mask(xs, ys, r),
                base.disks_shard_mask(xs, ys, r),
            )

    def test_split_keeps_cell_ownership_and_stable_ids(self):
        base = RegionGrid(BOUNDS, nx=3, ny=2)
        refined = RefinedRegionGrid.refine(base).split_cell(4)
        assert refined.n_regions == 3 * 2 + 3  # three new tiles
        assert refined.cell_shards[4][0] == 4  # first tile keeps the id
        assert refined.is_split(4) and not refined.is_split(0)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-500.0, 6500.0, 400)
        ys = rng.uniform(-500.0, 4500.0, 400)
        before = base.shards_of(xs, ys)
        after = refined.shards_of(xs, ys)
        tiles = set(refined.cell_shards[4])
        # Tuples in the split cell land on one of its tiles; everyone
        # else keeps their exact shard id.
        assert all(int(s) in tiles for s in after[before == 4])
        assert np.array_equal(after[before != 4], before[before != 4])
        for s in tiles:
            assert refined.cell_of_shard(s) == 4

    def test_split_validation(self):
        refined = RefinedRegionGrid.refine(RegionGrid(BOUNDS, nx=2, ny=2))
        with pytest.raises(ValueError, match="no base cell"):
            refined.split_cell(9)
        with pytest.raises(ValueError, match="split factors"):
            refined.split_cell(0, sx=1, sy=1)
        with pytest.raises(ValueError, match="split factors"):
            refined.split_cell(0, sx=3, sy=1)
        once = refined.split_cell(1)
        with pytest.raises(ValueError, match="already split"):
            once.split_cell(1)

    def test_merge_leaves_holes_and_split_reuses_them(self):
        refined = RefinedRegionGrid.refine(RegionGrid(BOUNDS, nx=3, ny=2))
        split = refined.split_cell(2)
        extra = set(split.cell_shards[2]) - {2}
        merged = split.merge_cell(2)
        assert merged.cell_shards[2] == (2,)  # survivor = lowest id
        assert merged.n_regions == split.n_regions  # slots never shrink
        for s in extra:
            assert not merged.active_shards[s]
            with pytest.raises(ValueError, match="not an active slot"):
                merged.region(s)
            with pytest.raises(ValueError, match="not an active slot"):
                merged.cell_of_shard(s)
        # Hole slots answer no scatter and own no points.
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(0, 6000, 300), rng.uniform(0, 4000, 300)
        assert not np.isin(merged.shards_of(xs, ys), list(extra)).any()
        assert not merged.disks_shard_mask(xs, ys, 4000.0)[:, list(extra)].any()
        # The next split takes the retired ids before growing the space.
        again = merged.split_cell(0)
        assert merged.n_regions == again.n_regions
        assert extra <= set(again.cell_shards[0])

    def test_degenerate_split_factors(self):
        refined = RefinedRegionGrid.refine(RegionGrid(BOUNDS, nx=3, ny=2))
        wide = refined.split_cell(0, sx=2, sy=1)
        tall = refined.split_cell(0, sx=1, sy=2)
        assert len(wide.cell_shards[0]) == 2 == len(tall.cell_shards[0])
        # 2x1 tiles stack along x, 1x2 along y.
        r_w = [wide.region(s).bounds for s in wide.cell_shards[0]]
        assert r_w[0].max_x == pytest.approx(r_w[1].min_x)
        r_t = [tall.region(s).bounds for s in tall.cell_shards[0]]
        assert r_t[0].max_y == pytest.approx(r_t[1].min_y)


class TestRouterRebalance:
    def test_split_and_merge_preserve_answers(self):
        stream = make_stream(600, hot_cell_frac=0.5)
        queries = make_queries(stream, 80)
        with ShardedQueryEngine(filled_router(stream)) as ref, \
                ShardedQueryEngine(filled_router(stream)) as eng:
            expected = answers(ref, queries)
            router = eng.router
            hot = int(np.argmax(router.shard_counts()))
            rows_before = router.shard_counts()[hot]
            new_ids = router.split_shard(hot)
            assert router.layout_epoch == 1
            assert sum(router.shard_counts()[s] for s in new_ids) == rows_before
            assert sum(router.shard_counts()) == len(stream)
            assert identical(expected, answers(eng, queries))
            cell = router.grid.cell_of_shard(hot)
            keep = router.merge_cell(cell)
            assert keep == min(new_ids)
            assert router.layout_epoch == 2
            assert router.shard_counts()[keep] == rows_before
            assert identical(expected, answers(eng, queries))

    def test_split_carries_load_share_to_tiles(self):
        stream = make_stream(400, hot_cell_frac=0.6)
        router = filled_router(stream)
        hot = int(np.argmax(router.shard_counts()))
        parent_load = router.load.loads()[hot]
        assert parent_load > 0  # ingest recorded
        new_ids = router.split_shard(hot)
        loads = router.load.loads()
        assert sum(loads[s] for s in new_ids) == pytest.approx(parent_load)
        merged = router.merge_cell(router.grid.cell_of_shard(hot))
        assert router.load.loads()[merged] == pytest.approx(parent_load)

    def test_window_stats_rows_carry_read_epoch(self):
        router = filled_router(make_stream(200))
        for stamp, n_rows, read_epoch in router.window_stats(0):
            assert read_epoch == router.epoch
            assert n_rows >= 0 and stamp >= 0

    def test_stale_binding_raises_and_engine_retries(self):
        stream = make_stream(300, hot_cell_frac=0.5)
        queries = make_queries(stream, 20)
        with ShardedQueryEngine(filled_router(stream)) as eng:
            binding = eng.binding()
            eng.router.split_shard(int(np.argmax(eng.router.shard_counts())))
            with pytest.raises(StaleLayoutError):
                eng.plan(queries, "naive", binding=binding)
            # The engine's own plan() re-pins internally and succeeds.
            assert answers(eng, queries).answered.any()

    def test_plan_built_before_rebalance_executes_identically(self, router_over):
        """A pinned plan outlives whatever the re-cut does — goes through
        (resident store) or is refused untouched (durable store)."""
        stream = make_stream(500, hot_cell_frac=0.5)
        queries = make_queries(stream, 60)
        for store in router_over.stores:
            router = filled_router(
                stream, make=lambda grid, h: router_over(store, grid, h)
            )
            with ShardedQueryEngine(router) as eng:
                plan = eng.plan(queries, "naive")
                expected = eng.execute(plan)
                hot = int(np.argmax(router.shard_counts()))
                if store == "resident":
                    router.split_shard(hot)
                    assert identical(expected, eng.execute(plan))  # pinned slices
                    router.merge_cell(router.grid.cell_of_shard(hot))
                    assert router.layout_epoch == 2
                else:
                    epoch = router.epoch
                    with pytest.raises(NotImplementedError, match="durable tier"):
                        router.split_shard(hot)
                    assert (router.epoch, router.layout_epoch) == (epoch, 0)
                assert identical(expected, eng.execute(plan))
                assert identical(expected, answers(eng, queries))

    def test_tiered_router_refuses_rebalance(self, tmp_path):
        from repro.storage.tiered import TieredShardRouter

        tiered = TieredShardRouter(
            RegionGrid(BOUNDS, nx=2, ny=2), h=H, data_dir=tmp_path / "tier"
        )
        tiered.ingest(make_stream(50))
        assert tiered.layout_epoch == 0
        with pytest.raises(NotImplementedError, match="durable tier"):
            tiered.split_shard(0)
        with pytest.raises(NotImplementedError, match="durable tier"):
            tiered.merge_cell(0)
        tiered.close()


class TestScanLoad:
    def test_scan_load_is_recorded(self):
        stream = make_stream(400, hot_cell_frac=0.6)
        queries = make_queries(stream, 60)
        with ShardedQueryEngine(filled_router(stream)) as eng:
            answers(eng, queries)
            stats = eng.router.shard_load_stats()
            assert sum(st.scan_queries for st in stats) > 0
            assert sum(st.scan_units for st in stats) > 0
            assert max(st.load for st in stats) > 0


class TestShardLoadTracker:
    def test_counters_accumulate_and_load_decays(self):
        tracker = ShardLoadTracker(3, alpha=0.5)
        tracker.record_ingest(1, 100)
        tracker.record_scan(1, 10, 500.0, 0.25)
        stat = tracker.snapshot()[1]
        assert stat.ingest_rows == 100
        assert stat.scan_queries == 10
        assert stat.scan_units == 500.0
        assert stat.scan_seconds == 0.25
        assert stat.load > 0
        before = tracker.loads()[1]
        tracker.decay()
        assert 0 < tracker.loads()[1] < before
        assert tracker.loads()[0] == 0.0

    def test_record_scans_is_record_scan_per_entry(self):
        one, many = ShardLoadTracker(3, alpha=0.5), ShardLoadTracker(3, alpha=0.5)
        scans = [(1, 10, 500.0, 0.25), (2, 3, 6.0, None), (1, 2, 4.0, 0.5)]
        for scan in scans:
            one.record_scan(*scan)
        many.record_scans(scans)
        assert one.snapshot() == many.snapshot()
        many.record_scans([])
        assert one.snapshot() == many.snapshot()

    def test_seed_resize_reset(self):
        tracker = ShardLoadTracker(2)
        tracker.seed_load(0, 8.0)
        assert tracker.loads()[0] == 8.0
        tracker.seed_load(0, -3.0)  # clamped: load is non-negative
        assert tracker.loads()[0] == 0.0
        tracker.resize(4)
        assert tracker.n_shards == 4
        tracker.resize(2)  # never shrinks
        assert tracker.n_shards == 4
        tracker.seed_load(3, 2.0)
        tracker.reset_shard(3)
        assert tracker.snapshot()[3].load == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardLoadTracker(0)
        with pytest.raises(ValueError):
            ShardLoadTracker(2, alpha=0.0)
        with pytest.raises(ValueError):
            ShardLoadTracker(2, alpha=1.5)

    def test_skew_coefficient(self):
        assert skew_coefficient([]) == 1.0
        assert skew_coefficient([0.0, 0.0]) == 1.0
        assert skew_coefficient([2.0, 2.0, 2.0]) == 1.0
        assert skew_coefficient([9.0, 1.0, 2.0]) == pytest.approx(9.0 / 4.0)


class TestShardRebalancer:
    def test_threshold_validation(self):
        router = filled_router(make_stream(50))
        with pytest.raises(ValueError, match="split_threshold"):
            ShardRebalancer(router, split_threshold=1.0)
        with pytest.raises(ValueError, match="merge_threshold"):
            ShardRebalancer(router, merge_threshold=1.0)

    def test_hot_unsplit_shard_is_split_first(self):
        stream = make_stream(500, hot_cell_frac=0.7)
        router = filled_router(stream)
        rb = ShardRebalancer(router)
        hot = int(np.argmax(router.shard_counts()))
        assert rb.skew() > rb.split_threshold
        action = rb.step()
        assert action.kind == "split" and action.shard == hot
        assert len(action.new_shards) >= 2
        assert rb.history == [action]
        assert router.grid.is_split(action.cell)

    def test_hot_tile_at_the_refinement_limit_is_left_alone(self):
        stream = make_stream(500, hot_cell_frac=0.7)
        router = filled_router(stream)
        rb = ShardRebalancer(router)
        split = rb.step()
        assert split.kind == "split"
        # Re-heat one tile far past the threshold (everyone else cold):
        # it cannot be split again, and its cell is not cold.
        tile = split.new_shards[-1]
        for s in range(router.n_shards):
            router.load.seed_load(s, 100.0 if s == tile else 0.0)
        layout = router.layout_epoch
        assert rb.step().kind == "none"
        assert router.layout_epoch == layout

    def test_all_cold_tiles_merge(self):
        stream = make_stream(400, hot_cell_frac=0.7)
        router = filled_router(stream)
        rb = ShardRebalancer(router)
        split = rb.step()
        # Load moves on: decay the tiles to cold, keep a suburb warm
        # so the mean stays positive.
        for s in split.new_shards:
            router.load.seed_load(s, 0.0)
        other = next(
            s for s in range(router.n_shards) if s not in split.new_shards
        )
        router.load.seed_load(other, 5.0)
        action = rb.step()
        assert action.kind == "merge" and action.cell == split.cell
        assert action.shard == min(split.new_shards)

    def test_run_reaches_quiescence_with_identical_answers(self):
        stream = make_stream(800, hot_cell_frac=0.6)
        queries = make_queries(stream, 120)
        with ShardedQueryEngine(filled_router(stream)) as ref, \
                ShardedQueryEngine(filled_router(stream)) as eng:
            expected = answers(ref, queries)
            answers(eng, queries)  # feed the load tracker a real workload
            rb = ShardRebalancer(eng.router)
            taken = rb.run(max_steps=12)
            assert taken, "skewed load must trigger at least one action"
            assert taken == rb.history
            assert any(a.kind == "split" for a in taken)
            assert identical(expected, answers(eng, queries))

    def test_quiet_on_balanced_load(self):
        router = filled_router(make_stream(300, hot_cell_frac=0.0))
        rb = ShardRebalancer(router)
        assert rb.run() == []
        assert router.layout_epoch == 0

    def test_tiny_hot_shard_is_left_alone(self):
        router = filled_router(make_stream(120, hot_cell_frac=0.5))
        rb = ShardRebalancer(router, min_rows_to_split=10_000)
        action = rb.step()
        assert action.kind == "none"
        assert router.layout_epoch == 0  # never re-cut below the floor

    def test_action_is_frozen_record(self):
        action = RebalanceAction("split", shard=1, new_shards=(1, 6))
        with pytest.raises(Exception):
            action.kind = "merge"


class TestSubscriptionsAcrossRebalance:
    def test_standing_query_survives_a_rebalance(self, small_batch):
        from repro.query.subscriptions import (
            SubscriptionSpec,
            registry_for,
        )

        bbox = BoundingBox(
            float(small_batch.x.min()) - 500.0,
            float(small_batch.y.min()) - 500.0,
            float(small_batch.x.max()) + 500.0,
            float(small_batch.y.max()) + 500.0,
        )
        head = small_batch.slice(0, 2000)
        router = ShardRouter(RegionGrid(bbox, nx=2, ny=2), h=240)
        router.ingest(head)
        with ShardedQueryEngine(router) as eng:
            reg = registry_for(eng)
            xm, ym = float(np.mean(head.x)), float(np.mean(head.y))
            spec = SubscriptionSpec(
                route=((xm - 300.0, ym - 300.0), (xm + 300.0, ym + 300.0)),
                t_start=float(head.t[0]),
                interval_s=60.0,
                count=20,
                method="naive",
            )
            sub = reg.register(spec)
            hot = int(np.argmax(router.shard_counts()))
            router.split_shard(hot)
            router.ingest(small_batch.slice(2000, 2600))
            reg.maintain()
            router.merge_cell(router.grid.cell_of_shard(hot))
            router.ingest(small_batch.slice(2600, 3000))
            reg.maintain()
            # Replay the update stream; the folded state must equal a
            # from-scratch engine over the same rows, bytes for bytes.
            state_v = sub.initial.values.copy()
            state_s = sub.initial.support.copy()
            for u in reg.drain([sub.id]):
                state_v[u.indices] = u.values
                state_s[u.indices] = u.support
            fresh = ShardRouter(RegionGrid(bbox, nx=2, ny=2), h=240)
            fresh.ingest(small_batch.slice(0, 3000))
            with ShardedQueryEngine(fresh) as ref_eng:
                ref_v, ref_s = registry_for(ref_eng).reference_answers(
                    spec.query_batch(), "naive"
                )
            assert np.array_equal(state_v, ref_v, equal_nan=True)
            assert np.array_equal(state_s, ref_s)


class TestShmLayoutRetirement:
    def test_export_retired_on_layout_change(self):
        from repro.storage.shm import ShardExportRegistry, attach_shard

        rng = np.random.default_rng(9)
        batch = TupleBatch(
            np.sort(rng.uniform(0, 100, 40)),
            rng.uniform(0, 100, 40),
            rng.uniform(0, 100, 40),
            rng.uniform(0, 100, 40),
        )
        registry = ShardExportRegistry()
        try:
            prefix = lambda: (batch, np.arange(40, dtype=np.int64))
            d1 = registry.ensure(0, 30, prefix, layout=0)
            # Same layout, covered length: reused.
            assert registry.ensure(0, 30, prefix, layout=0).shm_name == d1.shm_name
            # A re-cut replaced the shard's rows: long enough is not
            # good enough, the export must be rebuilt.
            d2 = registry.ensure(0, 30, prefix, layout=1)
            assert d2.shm_name != d1.shm_name
            with pytest.raises(FileNotFoundError):
                attach_shard(d1, untrack=False)
        finally:
            registry.close()
