"""Extended query-engine tests: the STR-tree method and the model-grid
debug heatmap."""

import numpy as np
import pytest

from repro.app.webapp import WebInterface
from repro.geo.coords import BoundingBox

from one_shard import one_shard_engine


@pytest.fixture(scope="module")
def engine(small_batch):
    return one_shard_engine(small_batch, h=240)


class TestSTRTreeMethod:
    def test_strtree_available(self, engine, small_batch):
        t = float(small_batch.t[100])
        res = engine.point_query(t, 2000.0, 1500.0, method="strtree")
        naive = engine.point_query(t, 2000.0, 1500.0, method="naive")
        if naive.answered:
            assert res.value == pytest.approx(naive.value)
            assert res.support == naive.support
        else:
            assert not res.answered

    def test_strtree_agrees_with_rtree_everywhere(self, engine, small_batch):
        t = float(small_batch.t[100])
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = float(rng.uniform(0, 6000))
            y = float(rng.uniform(0, 4000))
            a = engine.point_query(t, x, y, method="strtree")
            b = engine.point_query(t, x, y, method="rtree")
            assert a.support == b.support


class TestModelGridHeatmap:
    def test_model_grid_full_coverage(self, small_batch):
        web = WebInterface(one_shard_engine(small_batch, h=240))
        t = float(small_batch.t[500])
        hm = web.model_grid(t, BoundingBox(0, 0, 6000, 4000), nx=8, ny=6)
        assert hm.shape == (6, 8)
        assert np.all(np.isfinite(hm.grid))

    def test_splat_heatmap_bounded_by_marker_values(self, small_batch):
        """The demo heatmap never leaves the range of the centroid
        emissions — unlike the raw model grid, which extrapolates."""
        web = WebInterface(one_shard_engine(small_batch, h=240))
        t = float(small_batch.t[500])
        markers = web.centroid_markers(t)
        values = [m.co2_ppm for m in markers]
        hm = web.heatmap(t, BoundingBox(0, 0, 6000, 4000), nx=10, ny=8)
        lo, hi = hm.value_range()
        assert lo >= min(values) - 1e-6
        assert hi <= max(values) + 1e-6
