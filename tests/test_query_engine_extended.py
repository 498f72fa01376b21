"""Extended query-engine tests: the model-grid debug heatmap."""

import numpy as np

from repro.app.webapp import WebInterface
from repro.geo.coords import BoundingBox

from one_shard import one_shard_engine


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
