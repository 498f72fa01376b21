"""Tests for the query engine over an unsharded store: a
:class:`~repro.query.sharded.ShardedQueryEngine` over one region."""

import threading

import numpy as np
import pytest

from repro.core.adkmn import fit_adkmn
from repro.data.tuples import QueryTuple, TupleBatch
from repro.data.windows import window
from repro.geo.coords import BoundingBox
from repro.query.modelcover import ModelCoverProcessor
from repro.query.naive import NaiveProcessor
from repro.query.sharded import SHARDED_METHODS as METHODS
from repro.query.sharded import ShardedQueryEngine

from one_shard import one_shard_engine


@pytest.fixture(scope="module")
def engine(small_batch):
    return one_shard_engine(small_batch, h=240, radius_m=1000.0)


class TestConstruction:
    def test_empty_store_answers_no_query(self):
        engine = one_shard_engine(TupleBatch.empty())
        with pytest.raises(RuntimeError, match="no data"):
            engine.point_query(0.0, 0.0, 0.0, method="model-cover")

    def test_rejects_non_positive_cache_capacity(self, small_batch):
        with pytest.raises(ValueError):
            one_shard_engine(small_batch, cache_capacity=0)

    def test_default_cache_capacity(self, small_batch):
        engine = one_shard_engine(small_batch)
        assert (
            engine.processor_cache.capacity
            == ShardedQueryEngine.DEFAULT_CACHE_CAPACITY
        )


class TestWindowSelection:
    def test_window_for_time_zero(self, engine, small_batch):
        assert engine.router.window_for_time(float(small_batch.t[0])) == 0

    def test_window_advances_with_time(self, engine, small_batch):
        t_late = float(small_batch.t[240 * 3 + 10])
        assert engine.router.window_for_time(t_late) == 3

    def test_window_before_any_data(self, engine):
        assert engine.router.window_for_time(-100.0) == 0

    def test_window_after_all_data(self, engine, small_batch):
        c = engine.router.window_for_time(float(small_batch.t[-1]) + 1e6)
        assert c == (len(small_batch) - 1) // 240


class TestMethods:
    def test_all_methods_available(self, engine, small_batch):
        t = float(small_batch.t[0])
        for method in METHODS:
            assert engine.point_query(t, 2000, 1500, method=method) is not None

    def test_unknown_method(self, engine, small_batch):
        with pytest.raises(ValueError):
            engine.point_query(float(small_batch.t[0]), 2000, 1500, method="quantum")

    def test_cover_cached_across_queries(self, small_batch):
        engine = one_shard_engine(small_batch, h=240)
        t = float(small_batch.t[0])
        engine.point_query(t, 2000.0, 1500.0, method="model-cover")
        hits = engine.cache_stats.hits
        engine.point_query(t, 2100.0, 1500.0, method="model-cover")
        assert engine.cache_stats.hits == hits + 1
        assert engine.processor_cache.keys() == [("cover", 0, 0)]


class TestWebModes:
    def test_point_query_model_cover_always_answers(self, engine, small_batch):
        t = float(small_batch.t[100])
        res = engine.point_query(t, 2000.0, 1500.0, method="model-cover")
        assert res.answered

    def test_point_query_naive_can_miss(self, engine, small_batch):
        t = float(small_batch.t[100])
        res = engine.point_query(t, -50_000.0, -50_000.0, method="naive")
        assert not res.answered

    def test_continuous_query_spans_windows(self, engine, small_batch):
        t0 = float(small_batch.t[0])
        t1 = float(small_batch.t[300])  # crosses into window 1
        queries = [QueryTuple(t0, 2000, 1500), QueryTuple(t1, 2000, 1500)]
        results = engine.continuous_query(queries, method="model-cover")
        assert len(results) == 2
        assert all(r.answered for r in results)

    def test_heatmap_grid_shape(self, engine, small_batch):
        t = float(small_batch.t[100])
        bounds = BoundingBox(0, 0, 6000, 4000)
        grid = engine.heatmap_grid(t, bounds, nx=8, ny=6, method="model-cover")
        assert grid.shape == (6, 8)
        assert np.all(np.isfinite(grid))  # model cover answers everywhere

    def test_heatmap_naive_has_gaps(self, engine, small_batch):
        t = float(small_batch.t[100])
        bounds = BoundingBox(-20_000, -20_000, 26_000, 24_000)
        grid = engine.heatmap_grid(t, bounds, nx=6, ny=6, method="naive")
        assert np.any(np.isnan(grid))  # geo-skew: corners have no data


class TestHeatmapDegenerate:
    """Single-row/column grids centre the probe on the collapsed axis."""

    def test_1x1_probes_box_center(self, engine, small_batch):
        t = float(small_batch.t[100])
        bounds = BoundingBox(0, 0, 6000, 4000)
        grid = engine.heatmap_grid(t, bounds, nx=1, ny=1, method="model-cover")
        assert grid.shape == (1, 1)
        point = engine.point_query(t, 3000.0, 2000.0, method="model-cover")
        assert grid[0, 0] == pytest.approx(point.value)

    def test_single_row_centers_y(self, engine, small_batch):
        t = float(small_batch.t[100])
        bounds = BoundingBox(0, 0, 6000, 4000)
        grid = engine.heatmap_grid(t, bounds, nx=4, ny=1, method="model-cover")
        assert grid.shape == (1, 4)
        for i in range(4):
            x = 0.0 + (i / 3) * 6000.0
            point = engine.point_query(t, x, 2000.0, method="model-cover")
            assert grid[0, i] == pytest.approx(point.value)

    def test_single_column_centers_x(self, engine, small_batch):
        t = float(small_batch.t[100])
        bounds = BoundingBox(0, 0, 6000, 4000)
        grid = engine.heatmap_grid(t, bounds, nx=1, ny=3, method="model-cover")
        assert grid.shape == (3, 1)
        for j in range(3):
            y = 0.0 + (j / 2) * 4000.0
            point = engine.point_query(t, 3000.0, y, method="model-cover")
            assert grid[j, 0] == pytest.approx(point.value)

    def test_rejects_empty_axes(self, engine, small_batch):
        t = float(small_batch.t[100])
        bounds = BoundingBox(0, 0, 6000, 4000)
        with pytest.raises(ValueError):
            engine.heatmap_grid(t, bounds, nx=0, ny=3)
        with pytest.raises(ValueError):
            engine.heatmap_grid(t, bounds, nx=3, ny=0)

    def test_degenerate_nan_cells_survive_batch_path(self, engine, small_batch):
        """A 1x1 grid over empty countryside stays NaN for raw methods."""
        t = float(small_batch.t[100])
        far = BoundingBox(50_000, 50_000, 50_100, 50_100)
        for method in ("naive", "kdtree"):
            grid = engine.heatmap_grid(t, far, nx=1, ny=1, method=method)
            assert np.isnan(grid[0, 0])

    def test_batch_grid_matches_scalar_loop(self, engine, small_batch):
        """The grid equals the historical per-cell scalar loop over the
        window's processor, NaN cells included."""
        t = float(small_batch.t[100])
        c = engine.router.window_for_time(t)
        sub = window(small_batch, c, 240)
        procs = {
            "naive": NaiveProcessor(sub, 1000.0),
            "model-cover": ModelCoverProcessor(fit_adkmn(sub, window_c=c).cover),
        }
        bounds = BoundingBox(-20_000, -20_000, 26_000, 24_000)
        nx, ny = 5, 4
        for method, proc in procs.items():
            grid = engine.heatmap_grid(t, bounds, nx=nx, ny=ny, method=method)
            expected = np.full((ny, nx), np.nan)
            for j in range(ny):
                fy = 0.5 if ny == 1 else j / (ny - 1)
                y = bounds.min_y + fy * bounds.height
                for i in range(nx):
                    fx = 0.5 if nx == 1 else i / (nx - 1)
                    x = bounds.min_x + fx * bounds.width
                    res = proc.process(QueryTuple(t=t, x=x, y=y))
                    if res.answered:
                        expected[j, i] = res.value
            np.testing.assert_allclose(grid, expected, rtol=1e-9, equal_nan=True)


class TestCacheThreadSafety:
    def test_concurrent_queries_stay_bounded(self, small_batch):
        """Queries across windows from several threads: the cache bound
        and its counters stay coherent (one index lookup per query)."""
        engine = one_shard_engine(small_batch, h=240, cache_capacity=3, max_workers=1)
        n_windows = engine.router.global_window_count()
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(20):
                    c = int(rng.integers(0, 6)) % n_windows
                    t = float(small_batch.t[c * 240])
                    engine.point_query(t, 2000.0, 1500.0, method="kdtree")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(engine.processor_cache) <= 3
        stats = engine.cache_stats
        assert stats.hits + stats.misses == 4 * 20


class TestLifecycle:
    def test_close_is_idempotent_and_engine_stays_usable(self, small_batch):
        engine = one_shard_engine(small_batch, h=240, radius_m=1000.0)
        t = float(small_batch.t[100])
        engine.executor._ensure_pool()
        assert engine.executor._pool is not None
        engine.close()
        assert engine.executor._pool is None  # live pool actually torn down
        engine.close()  # idempotent
        assert engine.point_query(t, 2000.0, 1500.0, method="model-cover").answered
        engine.executor._ensure_pool()  # parallel paths recreate on demand
        assert engine.executor._pool is not None
        engine.close()

    def test_context_manager_shuts_pool_down(self, small_batch):
        with one_shard_engine(small_batch, h=240, radius_m=1000.0) as engine:
            engine.executor._ensure_pool()
            assert engine.executor._pool is not None
        assert engine.executor._pool is None

    def test_windows_for_times_matches_scalar(self, engine, small_batch):
        ts = [float(small_batch.t[i]) for i in (0, 100, 2000)]
        ts.append(float(small_batch.t[0]) - 5.0)
        vec = engine.router.windows_for_times(ts)
        assert vec.tolist() == [engine.router.window_for_time(t) for t in ts]
