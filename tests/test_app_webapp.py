"""Tests for repro.app.webapp — the three web-interface modes."""

import numpy as np
import pytest

import repro.query.sharded as sharded_mod
from repro.app.webapp import WebInterface
from repro.client.osha import HealthLevel
from repro.core.adkmn import fit_adkmn
from repro.data.windows import window
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter

from one_shard import one_shard_engine


@pytest.fixture(scope="module")
def web(small_batch):
    return WebInterface(one_shard_engine(small_batch, h=240))


@pytest.fixture(scope="module")
def t_mid(small_batch):
    return float(small_batch.t[500])


class TestPointQueryMode:
    def test_reading_with_text(self, web, t_mid):
        reading = web.point_query(t_mid, 2000.0, 1500.0)
        assert reading.co2_ppm is not None
        assert "ppm" in reading.text

    def test_reading_coordinates_echoed(self, web, t_mid):
        reading = web.point_query(t_mid, 1234.0, 2345.0)
        assert reading.x == 1234.0
        assert reading.y == 2345.0

    def test_negative_extrapolation_is_described_clamped(self, web, small_batch):
        """Far off its sub-region a model can extrapolate below zero: the
        reading keeps the raw value and describes it clamped, as the
        route readings and markers do, instead of raising."""
        t = float(small_batch.t[1000])
        reading = web.point_query(t, -1e6, -1e6)
        assert reading.co2_ppm < 0.0
        assert reading.text.startswith("0 ppm CO2")


class TestContinuousQueryMode:
    def test_readings_along_route(self, web, t_mid):
        readings = web.continuous_query(
            [(1000.0, 1000.0), (3000.0, 2200.0)], t_start=t_mid, updates=10
        )
        assert len(readings) == 10
        answered = [r for r in readings if r.co2_ppm is not None]
        assert len(answered) == 10
        assert all(r.marker_color.startswith("#") for r in answered)

    def test_needs_two_points(self, web, t_mid):
        with pytest.raises(ValueError):
            web.continuous_query([(0.0, 0.0)], t_start=t_mid)

    def test_route_endpoints_visited(self, web, t_mid):
        readings = web.continuous_query(
            [(1000.0, 1000.0), (3000.0, 2200.0)], t_start=t_mid, updates=5
        )
        assert (readings[0].x, readings[0].y) == (1000.0, 1000.0)
        assert (readings[-1].x, readings[-1].y) == (3000.0, 2200.0)


class TestHeatmapMode:
    def test_heatmap_covers_bounds(self, web, t_mid):
        bounds = BoundingBox(0, 0, 6000, 4000)
        hm = web.heatmap(t_mid, bounds, nx=10, ny=8)
        assert hm.shape == (8, 10)
        assert np.all(np.isfinite(hm.grid))

    def test_centroid_markers(self, web, t_mid):
        markers = web.centroid_markers(t_mid)
        assert len(markers) >= 1
        for m in markers:
            assert m.co2_ppm >= 0.0
            assert m.color.startswith("#")


class TestCentroidMarkersPipeline:
    """Regression: centroid_markers reads the engine's cached covers of
    the window that owns ``t`` — one per shard with rows in it."""

    def test_repeated_renders_reuse_cached_fit(self, small_batch, monkeypatch):
        web = WebInterface(one_shard_engine(small_batch, h=240))
        t = float(small_batch.t[500])

        fits = []
        original = sharded_mod.fit_adkmn

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sharded_mod, "fit_adkmn", counting_fit)
        first = web.centroid_markers(t)
        for _ in range(3):
            again = web.centroid_markers(t)
            assert [(m.x, m.y, m.co2_ppm) for m in again] == [
                (m.x, m.y, m.co2_ppm) for m in first
            ]
        assert len(fits) == 1

    def test_reads_the_engine_cover_cache_entry(self, small_batch):
        engine = one_shard_engine(small_batch, h=240)
        web = WebInterface(engine)
        t = float(small_batch.t[500])
        markers = web.centroid_markers(t)
        router = engine.router
        c = router.window_for_time(t)
        cached = engine.processor_cache.peek(
            ("cover", 0, c), router.shard_window_epoch(0, c)
        )
        assert cached is not None
        assert len(markers) == len(cached.cover.centroids)
        for marker, (cx, cy) in zip(markers, cached.cover.centroids):
            assert (marker.x, marker.y) == (float(cx), float(cy))

    def test_matches_window_fit(self, small_batch):
        web = WebInterface(one_shard_engine(small_batch, h=240))
        t = float(small_batch.t[500])
        c = web.engine.router.window_for_time(t)
        cover = fit_adkmn(window(small_batch, c, 240), window_c=c).cover
        markers = web.centroid_markers(t)
        assert [(m.x, m.y) for m in markers] == [
            (float(cx), float(cy)) for cx, cy in cover.centroids
        ]
        for marker, (cx, cy), model in zip(markers, cover.centroids, cover.models):
            assert marker.co2_ppm == max(float(model.predict(t, cx, cy)), 0.0)

    def test_one_marker_set_per_populated_shard(self, small_batch):
        """Over four shards the emitters are every populated shard's
        cover centroids, in shard order."""
        router = ShardRouter(
            RegionGrid.for_shard_count(BoundingBox(0, 0, 6000, 4000), 4), h=240
        )
        router.ingest(small_batch)
        web = WebInterface(ShardedQueryEngine(router))
        t = float(small_batch.t[500])
        c = router.window_for_time(t)
        expected = []
        for s in range(router.n_shards):
            sub = router.shard_window(s, c)
            if len(sub):
                expected += fit_adkmn(sub, window_c=c).cover.centroids.tolist()
        markers = web.centroid_markers(t)
        assert [(m.x, m.y) for m in markers] == [tuple(p) for p in expected]
        assert all(m.level in HealthLevel for m in markers)
