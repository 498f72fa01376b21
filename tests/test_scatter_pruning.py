"""Scatter pruning: zone-map sketches, geometry, and byte identity.

The contract under test is the tentpole guarantee of the pruning pass
(``repro/query/pipeline/executor.py``): a pruned plan answers
**byte-identically** to the full scatter at any shard count, because the
pass only ever drops (shard, window) scans that provably contribute zero
hits — grid geometry and per-(shard, window) :class:`WindowSketch` zone
maps are superset-safe, and the exact gather orders hits canonically.
The hypothesis suites drive tuples and queries onto the adversarial
boundaries (region-cell edges, exact radius distance, window cuts); the
free-running test asserts the same identity over one *shared* binding
while a writer ingests flat out (the pattern of ``tests/concurrency.py``
scaled down to plan granularity).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.pipeline.executor import build_sharded_plan
from repro.query.pipeline.plan import PruneStats, format_plan
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter
from repro.storage.sketch import WindowSketch

from one_shard import one_shard_engine

BOUNDS = BoundingBox(0.0, 0.0, 3000.0, 2000.0)
RADIUS = 400.0


def fingerprint(result):
    """NaN-stable byte identity of a BatchResult."""
    return (
        result.values.tobytes(),
        result.support.tobytes(),
        result.answered.tobytes(),
    )


def build_router(batch: TupleBatch, n_shards: int, h: int) -> ShardRouter:
    router = ShardRouter(
        RegionGrid.for_shard_count(BOUNDS, n_shards), h=h
    )
    step = max(len(batch) // 3, 1)
    for start in range(0, len(batch), step):
        router.ingest(batch.slice(start, min(start + step, len(batch))))
    return router


# -- WindowSketch unit behaviour -------------------------------------------


class TestWindowSketch:
    def test_empty_sentinel(self):
        assert WindowSketch.EMPTY.is_empty
        assert WindowSketch.EMPTY.n_rows == 0
        hits = WindowSketch.EMPTY.disk_overlaps(
            np.array([0.0, 5.0]), np.array([0.0, 5.0]), 1e12
        )
        assert not hits.any()

    def test_of_matches_batch_extremes(self, daytime_window):
        sketch = WindowSketch.of(daytime_window)
        assert sketch.n_rows == len(daytime_window)
        assert sketch.min_x == float(daytime_window.x.min())
        assert sketch.max_x == float(daytime_window.x.max())
        assert sketch.min_y == float(daytime_window.y.min())
        assert sketch.max_y == float(daytime_window.y.max())
        assert sketch.min_t == float(daytime_window.t.min())
        assert sketch.max_t == float(daytime_window.t.max())

    def test_of_empty_batch_is_empty(self, daytime_window):
        assert WindowSketch.of(daytime_window.slice(0, 0)) is WindowSketch.EMPTY

    def test_extended_only_widens(self, daytime_window):
        first = WindowSketch.of(daytime_window.slice(0, 100))
        rest = daytime_window.slice(100, len(daytime_window))
        grown = first.extended(rest.t, rest.x, rest.y, rest.s)
        whole = WindowSketch.of(daytime_window)
        assert grown == whole
        assert grown.min_x <= first.min_x and grown.max_x >= first.max_x

    def test_extended_with_empty_delta_is_self(self, daytime_window):
        sketch = WindowSketch.of(daytime_window)
        e = np.empty(0)
        assert sketch.extended(e, e, e, e) is sketch

    def test_merge(self, daytime_window):
        a = WindowSketch.of(daytime_window.slice(0, 80))
        b = WindowSketch.of(daytime_window.slice(80, len(daytime_window)))
        assert a.merge(b) == WindowSketch.of(daytime_window)
        assert a.merge(WindowSketch.EMPTY) == a
        assert WindowSketch.EMPTY.merge(b) == b

    def test_disk_overlap_boundary_is_exactly_the_scan_predicate(self):
        # One tuple at the origin; a query at exactly radius distance
        # must stay (the scan's predicate is <= r^2), one ulp past must
        # prune.  This is the superset-safety boundary.
        t = x = y = s = np.zeros(1)
        sketch = WindowSketch.of(TupleBatch(t, x, y, s))
        r = 250.0
        on = sketch.disk_overlaps(np.array([r]), np.array([0.0]), r)
        past = sketch.disk_overlaps(
            np.array([np.nextafter(r, np.inf)]), np.array([0.0]), r
        )
        assert on[0]
        assert not past[0]

    def test_overlap_never_misses_a_scan_hit(self, daytime_window):
        # Superset safety on real data: any query with >= 1 raw tuple
        # inside the radius must also overlap the sketch's box.
        sketch = WindowSketch.of(daytime_window)
        rng = np.random.default_rng(3)
        qx = rng.uniform(BOUNDS.min_x - 500, BOUNDS.max_x + 500, 200)
        qy = rng.uniform(BOUNDS.min_y - 500, BOUNDS.max_y + 500, 200)
        keep = sketch.disk_overlaps(qx, qy, RADIUS)
        d2 = (daytime_window.x[None, :] - qx[:, None]) ** 2 + (
            daytime_window.y[None, :] - qy[:, None]
        ) ** 2
        has_hit = (d2 <= RADIUS * RADIUS).any(axis=1)
        assert not (has_hit & ~keep).any()


# -- incrementally-maintained router sketches ------------------------------


class TestRouterSketches:
    def test_incremental_equals_recomputed(self, small_batch):
        router = build_router(small_batch, n_shards=4, h=240)
        for s in range(router.n_shards):
            for c in range(router.global_window_count()):
                expected = WindowSketch.of(router.shard_window(s, c))
                assert router.shard_window_sketch(s, c) == expected

    def test_empty_slice_maps_to_empty_sentinel(self, small_batch):
        router = build_router(small_batch, n_shards=4, h=240)
        # A window index past the stream maps to EMPTY (no KeyError).
        assert (
            router.shard_window_sketch(0, router.global_window_count() + 5)
            is WindowSketch.EMPTY
        )

    def test_snapshot_quadruple_is_coherent(self, small_batch):
        router = build_router(small_batch, n_shards=4, h=240)
        for s in range(router.n_shards):
            stamp, sub, gids, sketch = router.snapshot_window_sketch(s, 0)
            assert stamp == router.shard_window_epoch(s, 0)
            assert sketch == WindowSketch.of(sub)
            assert len(gids) == len(sub)

    def test_window_stats_match_sketches(self, small_batch):
        router = build_router(small_batch, n_shards=4, h=240)
        stats = router.window_stats(0)
        assert len(stats) == router.n_shards
        for s, (stamp, n_rows, read_epoch) in enumerate(stats):
            assert stamp == router.shard_window_epoch(s, 0)
            assert n_rows == len(router.shard_window(s, 0))
            # Quiescent router: the rows were read at the live epoch.
            assert read_epoch == router.epoch


# -- vectorised region geometry --------------------------------------------


class TestRegionGeometry:
    @pytest.fixture(scope="class")
    def grid(self):
        return RegionGrid.for_shard_count(BOUNDS, 6)

    def test_disk_shards_matches_list_api(self, grid):
        rng = np.random.default_rng(11)
        cell_w = (BOUNDS.max_x - BOUNDS.min_x) / grid.nx
        edges = [BOUNDS.min_x + i * cell_w for i in range(grid.nx + 1)]
        xs = np.concatenate([rng.uniform(-500, 3500, 50), np.array(edges)])
        for x in xs:
            for y in (0.0, 999.9, 1000.0, 2000.0):
                for r in (0.0, 1.0, 400.0, 5000.0):
                    assert grid.shards_overlapping_disk(x, y, r) == grid.disk_shards(
                        float(x), y, r
                    ).tolist()

    def test_disks_shard_mask_rows_match_scalar_api(self, grid):
        rng = np.random.default_rng(12)
        xs = rng.uniform(-500, 3500, 80)
        ys = rng.uniform(-500, 2500, 80)
        mask = grid.disks_shard_mask(xs, ys, RADIUS)
        assert mask.shape == (80, grid.nx * grid.ny)
        for i in range(80):
            expected = np.zeros(grid.nx * grid.ny, dtype=bool)
            expected[grid.shards_overlapping_disk(float(xs[i]), float(ys[i]), RADIUS)] = True
            np.testing.assert_array_equal(mask[i], expected)

    def test_mask_on_exact_cell_edges(self, grid):
        # A disk centred exactly on a cell edge must reach both cells.
        cell_w = (BOUNDS.max_x - BOUNDS.min_x) / grid.nx
        x_edge = BOUNDS.min_x + cell_w  # boundary between cells 0 and 1
        mask = grid.disks_shard_mask(
            np.array([x_edge]), np.array([500.0]), 1.0
        )[0]
        assert mask[0] and mask[1]


# -- byte identity: pruned == full scatter ---------------------------------


def _adversarial_coord_pool():
    """x/y values sitting exactly on region-cell edges for the 2x2, 2x3
    and 3x2 grids over BOUNDS, plus interior and out-of-range points."""
    xs = [0.0, 750.0, 1000.0, 1500.0, 2000.0, 2250.0, 3000.0, -350.0, 3350.0]
    ys = [0.0, 500.0, 666.6666666666666, 1000.0, 1333.3333333333333, 2000.0, -350.0, 2350.0]
    return xs, ys


_XS, _YS = _adversarial_coord_pool()

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def pruning_scenarios(draw):
    """(tuples, queries) with coordinates on cell edges, queries at exact
    radius distance from tuples, and timestamps on window cuts."""
    n = draw(st.integers(min_value=1, max_value=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # Tuples: half from the adversarial edge pool, half uniform inside.
    tx = np.where(
        rng.random(n) < 0.5,
        rng.choice(np.array(_XS[:7]), n),
        rng.uniform(BOUNDS.min_x, BOUNDS.max_x, n),
    )
    ty = np.where(
        rng.random(n) < 0.5,
        rng.choice(np.array(_YS[:6]), n),
        rng.uniform(BOUNDS.min_y, BOUNDS.max_y, n),
    )
    tt = np.sort(rng.uniform(0.0, 86400.0, n))
    ts = rng.normal(400.0, 30.0, n)
    batch = TupleBatch(tt, tx, ty, ts)

    nq = draw(st.integers(min_value=1, max_value=40))
    qx = rng.choice(np.array(_XS), nq)
    qy = rng.choice(np.array(_YS), nq)
    # A third of the queries at *exactly* radius distance from a tuple.
    exact = rng.random(nq) < 0.34
    anchor = rng.integers(0, n, nq)
    qx = np.where(exact, tx[anchor] + RADIUS, qx)
    qy = np.where(exact, ty[anchor], qy)
    # Timestamps: tuple times (window-cut boundaries) or uniform.
    qt = np.where(
        rng.random(nq) < 0.5,
        tt[rng.integers(0, n, nq)],
        rng.uniform(0.0, 86400.0, nq),
    )
    return batch, QueryBatch(qt, qx, qy)


class TestPrunedPlansAreByteIdentical:
    def _assert_identical(self, batch, queries, n_shards, h):
        router = build_router(batch, n_shards=n_shards, h=h)
        with ShardedQueryEngine(router, radius_m=RADIUS, max_workers=1) as engine:
            # One *shared* binding: both plans must pin the same rows.
            binding = engine.binding()
            kwargs = dict(method="naive", radius_m=RADIUS)
            full = build_sharded_plan(binding, queries, prune=False, **kwargs)
            lean = build_sharded_plan(binding, queries, prune=True, **kwargs)
            assert lean.ops_kept <= full.ops_kept
            assert fingerprint(engine.execute(lean)) == fingerprint(
                engine.execute(full)
            )

    @_SETTINGS
    @given(scenario=pruning_scenarios(), n_shards=st.sampled_from([1, 4, 6]))
    def test_continuous_any_shard_count(self, scenario, n_shards):
        batch, queries = scenario
        self._assert_identical(batch, queries, n_shards, h=max(len(batch) // 5, 1))

    @_SETTINGS
    @given(scenario=pruning_scenarios(), h=st.sampled_from([1, 7, 10**6]))
    def test_point_and_window_cut_boundaries(self, scenario, h):
        # h=1: every tuple its own window; huge h: one window.
        batch, queries = scenario
        self._assert_identical(batch, queries.take(np.array([0])), 4, h=h)
        self._assert_identical(batch, queries, 4, h=h)

    @_SETTINGS
    @given(seed=st.integers(0, 2**31 - 1), n_shards=st.sampled_from([4, 6]))
    def test_heatmap_grids(self, seed, n_shards, small_batch):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 400))
        start = int(rng.integers(0, len(small_batch) - n))
        batch = small_batch.slice(start, start + n)
        probes = QueryBatch.from_grid(
            float(batch.t[-1]),
            BOUNDS.min_x - 200.0,
            BOUNDS.min_y - 200.0,
            (BOUNDS.max_x - BOUNDS.min_x) + 400.0,
            (BOUNDS.max_y - BOUNDS.min_y) + 400.0,
            9,
            7,
        )
        self._assert_identical(batch, probes, n_shards, h=max(n // 4, 1))

    def test_cover_plans_thread_pruning_into_fallback(self, small_batch):
        router = build_router(small_batch, n_shards=4, h=240)
        with ShardedQueryEngine(router, radius_m=RADIUS, max_workers=1) as engine:
            queries = QueryBatch(
                small_batch.t[::37].copy(),
                small_batch.x[::37].copy(),
                small_batch.y[::37].copy(),
            )
            binding = engine.binding()
            kwargs = dict(method="model-cover", radius_m=RADIUS)
            full = build_sharded_plan(binding, queries, prune=False, **kwargs)
            lean = build_sharded_plan(binding, queries, prune=True, **kwargs)
            assert fingerprint(engine.execute(lean)) == fingerprint(
                engine.execute(full)
            )


class TestFreeRunningIngestIdentity:
    def test_shared_binding_pins_pruning_and_scans_together(self, small_batch):
        """Writer ingests flat out; every round builds a pruned and an
        unpruned plan over ONE shared binding — the binding pins slice,
        gids and sketch in one locked read, so the two plans must agree
        byte-for-byte no matter where the writer is."""
        router = ShardRouter(RegionGrid.for_shard_count(BOUNDS, 4), h=200)
        router.ingest(small_batch.slice(0, 400))
        stop = threading.Event()
        position = 400

        def writer():
            nonlocal position
            while not stop.is_set() and position < len(small_batch):
                nxt = min(position + 97, len(small_batch))
                router.ingest(small_batch.slice(position, nxt))
                position = nxt

        rng = np.random.default_rng(5)
        with ShardedQueryEngine(router, radius_m=RADIUS, max_workers=2) as engine:
            thread = threading.Thread(target=writer)
            thread.start()
            try:
                for _ in range(25):
                    span = float(small_batch.t[min(position, len(small_batch) - 1)])
                    queries = QueryBatch(
                        rng.uniform(0.0, span, 30),
                        rng.choice(np.array(_XS), 30),
                        rng.choice(np.array(_YS), 30),
                    )
                    binding = engine.binding()
                    kwargs = dict(method="naive", radius_m=RADIUS)
                    lean = build_sharded_plan(
                        binding, queries, prune=True, **kwargs
                    )
                    full = build_sharded_plan(
                        binding, queries, prune=False, **kwargs
                    )
                    assert fingerprint(engine.execute(lean)) == fingerprint(
                        engine.execute(full)
                    )
            finally:
                stop.set()
                thread.join()


# -- process-parallel path: pruned plans on the worker pool ----------------


class TestProcessParallelPath:
    def test_pruned_plan_identical_through_worker_pool(self, small_batch):
        from repro.query.pipeline.parallel import ProcessPlanExecutor

        router = build_router(small_batch, n_shards=4, h=240)
        with ShardedQueryEngine(router, radius_m=RADIUS, max_workers=1) as engine:
            t_mid = float(small_batch.t[len(small_batch) // 2])
            i = len(small_batch) // 2
            queries = QueryBatch(
                np.full(10, t_mid),
                float(small_batch.x[i]) + np.linspace(-50.0, 50.0, 10),
                np.full(10, float(small_batch.y[i])),
            )
            lean = engine.plan(queries, "naive", prune=True)
            assert lean.ops_pruned > 0  # fewer ops ever reach the workers
            expected = engine.execute(engine.plan(queries, "naive", prune=False))
            with ProcessPlanExecutor(engine, processes=2) as executor:
                got = executor.execute(lean)
                assert executor.fallbacks == 0
            assert fingerprint(got) == fingerprint(expected)


# -- one shard: an unsharded store prunes by its zone maps ------------------


class TestOneShardPruning:
    def test_far_groups_pruned_and_identical(self, small_batch):
        engine = one_shard_engine(small_batch, h=240, radius_m=RADIUS)
        t_mid = float(small_batch.t[len(small_batch) // 2])
        # Far from every tuple: the whole group is provably hitless.
        far = QueryBatch(
            np.full(8, t_mid), np.full(8, 10.0**7), np.full(8, -10.0**7)
        )
        lean = engine.plan(far, "naive", prune=True)
        full = engine.plan(far, "naive", prune=False)
        assert lean.ops_pruned == 1 and lean.ops_kept == 0
        assert full.ops_pruned == 0
        assert fingerprint(engine.execute(lean)) == fingerprint(
            engine.execute(full)
        )

    def test_near_groups_never_pruned(self, small_batch):
        engine = one_shard_engine(small_batch, h=240, radius_m=RADIUS)
        t_mid = float(small_batch.t[len(small_batch) // 2])
        i = len(small_batch) // 2
        near = QueryBatch(
            np.full(4, t_mid),
            np.full(4, float(small_batch.x[i])),
            np.full(4, float(small_batch.y[i])),
        )
        lean = engine.plan(near, "naive", prune=True)
        assert lean.ops_pruned == 0
        assert fingerprint(engine.execute(lean)) == fingerprint(
            engine.execute(engine.plan(near, "naive", prune=False))
        )

    def test_sealed_window_pruned_without_resolving_its_slice(
        self, small_batch, monkeypatch
    ):
        """A sealed window's zone map is the router's frozen sketch, so
        pruning it reads no rows, plan after plan."""
        engine = one_shard_engine(small_batch, h=240, radius_m=RADIUS)
        router = engine.router
        reads = []
        snapshot = router.snapshot_window_sketch
        monkeypatch.setattr(
            router,
            "snapshot_window_sketch",
            lambda s, c: reads.append((s, c)) or snapshot(s, c),
        )
        t0 = float(small_batch.t[10])
        far = QueryBatch(np.full(4, t0), np.full(4, 1e7), np.full(4, 1e7))
        for _ in range(2):
            plan = engine.plan(far, "naive", prune=True)
            assert [rec.reason for rec in plan.pruned] == ["sketch"]
            assert plan.ops_kept == 0
        assert reads == []


# -- observability ---------------------------------------------------------


class TestObservability:
    def test_prune_stats_accumulate(self, small_batch):
        router = build_router(small_batch, n_shards=4, h=240)
        with ShardedQueryEngine(router, radius_m=RADIUS, max_workers=1) as engine:
            t_mid = float(small_batch.t[len(small_batch) // 2])
            local = QueryBatch(
                np.full(6, t_mid), np.full(6, 100.0), np.full(6, 100.0)
            )
            plan = engine.plan(local, "naive")
            stats = engine.prune_stats.as_dict()
            assert stats["plans"] == 1
            assert stats["ops_pruned"] == plan.ops_pruned
            assert stats["ops_kept"] == plan.ops_kept
            engine.plan(local, "naive", prune=False)
            assert engine.prune_stats.as_dict()["plans"] == 2

    def test_report_counts_and_format(self, small_batch):
        router = build_router(small_batch, n_shards=4, h=240)
        with ShardedQueryEngine(router, radius_m=RADIUS, max_workers=1) as engine:
            t_mid = float(small_batch.t[len(small_batch) // 2])
            local = QueryBatch(
                np.full(6, t_mid), np.full(6, 100.0), np.full(6, 100.0)
            )
            plan = engine.plan(local, "naive")
            assert plan.ops_pruned > 0  # a local query must prune shards
            from repro.query.pipeline.plan import PlanReport

            report = PlanReport()
            engine.execute(plan, report)
            assert report.ops_pruned == plan.ops_pruned
            assert report.ops_kept == plan.ops_kept
            text = format_plan(plan)
            assert f"pruned={plan.ops_pruned}" in text
            assert "pruned[" in text and "~" in text
            assert f"{plan.ops_pruned} op(s) pruned" in text

    def test_prune_stats_start_empty(self):
        stats = PruneStats()
        assert stats.as_dict() == {"plans": 0, "ops_pruned": 0, "ops_kept": 0}


class TestExplainCli:
    def test_focused_explain_reports_pruning(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "explain", "--shards", "16", "--queries", "40",
                "--method", "naive", "--focus", "0.1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pruning: ops_pruned=" in out
        assert "ops_pruned=0 " not in out  # focused workload must prune
        assert "pruned[" in out

    def test_no_prune_flag_disables_pass(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "explain", "--shards", "4", "--queries", "40",
                "--method", "naive", "--focus", "0.25", "--no-prune",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ops_pruned=0" in out

    def test_focus_validated(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["explain", "--focus", "1.5"])
