"""End-to-end integration tests: the full EnviroMeter loop.

Sense -> store -> model -> query -> cache -> app, across module
boundaries, on the small synthetic dataset.
"""

import numpy as np
import pytest

from repro.app.android import AndroidSession
from repro.app.webapp import WebInterface
from repro.client.baseline import BaselineClient
from repro.client.modelcache import ModelCacheClient
from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple
from repro.geo.coords import BoundingBox

from one_shard import one_shard_engine, protocol_service


class TestFullLoop:
    def test_sense_store_model_query(self, small_dataset):
        """The complete Figure 1/3 pipeline."""
        server = protocol_service(h=240)
        server.ingest(small_dataset.tuples)

        t = float(small_dataset.tuples.t[800])
        # Point query through the server path.
        from repro.network.messages import ModelRequest, QueryRequest

        response = server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))
        assert 200.0 < response.value < 1500.0

        # The served cover blob round-trips.
        c = int(server.engine.router.windows_for_times((t,))[0])
        blob = server.handle(ModelRequest(t=t, x=2000.0, y=1500.0)).blob
        cover = ModelCover.from_blob(blob)
        assert cover.window_c == c

    def test_clients_agree_within_cover_validity(self, small_dataset):
        server = protocol_service(h=240)
        server.ingest(small_dataset.tuples)
        t0 = float(small_dataset.tuples.t[300])
        # Queries within one window: both clients see the same cover.
        queries = [QueryTuple(t=t0 + i, x=2000.0, y=1500.0) for i in range(10)]
        vb = BaselineClient(server).run_continuous(queries)
        vm = ModelCacheClient(server).run_continuous(queries)
        for a, b in zip(vb, vm):
            assert a == pytest.approx(b)

    def test_android_and_web_consistent(self, small_dataset):
        server = protocol_service(h=240)
        server.ingest(small_dataset.tuples)
        engine = one_shard_engine(small_dataset.tuples, h=240)
        web = WebInterface(engine)

        t = float(small_dataset.tuples.t[800])
        session = AndroidSession(server)
        session.set_clock(t)
        session.update_position(2000.0, 1500.0)

        phone = session.current_reading()
        browser = web.point_query(t, 2000.0, 1500.0).co2_ppm
        # Same algorithm, same data, same window -> same interpolation.
        assert phone == pytest.approx(browser, rel=1e-9)

    def test_heatmap_tracks_pollution_sources(self, small_dataset):
        engine = one_shard_engine(small_dataset.tuples, h=500)
        web = WebInterface(engine)
        # Morning rush hour: plume contrast is at its strongest.
        t = float(
            small_dataset.tuples.t[
                int(np.searchsorted(small_dataset.tuples.t, 8.0 * 3600.0))
            ]
        )
        hm = web.heatmap(t, BoundingBox(500, 500, 4500, 3000), nx=12, ny=8)
        lo, hi = hm.value_range()
        # Real spatial contrast, physically plausible outdoor CO2 range.
        assert hi - lo > 5.0
        assert 300.0 < lo < hi < 1500.0

    def test_cover_accuracy_against_window_data(self, small_dataset, daytime_window):
        """The cover's training-data error respects the Ad-KMN threshold."""
        from repro.core.adkmn import AdKMNConfig, fit_adkmn
        from repro.models.errors import approximation_error_pct

        result = fit_adkmn(daytime_window, AdKMNConfig(tau_n_pct=2.0))
        w = daytime_window
        pred = result.cover.predict_batch(w.t, w.x, w.y)
        overall = approximation_error_pct(pred, w.s)
        # Overall error is a size-weighted mix of per-region errors, all
        # of which converged to <= 2 % (or were too small to split).
        assert overall <= 3.0
