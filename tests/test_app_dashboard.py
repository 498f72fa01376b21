"""Tests for repro.app.dashboard."""

import numpy as np
import pytest

from repro.app.dashboard import Dashboard, cover_health, skew_indicators
from repro.core.adkmn import AdKMNConfig, fit_adkmn
from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import Region

from one_shard import protocol_service

REGION = Region("lausanne", BoundingBox(0, 0, 6000, 4000))


class TestSkewIndicators:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            skew_indicators(TupleBatch.empty(), REGION)

    def test_invalid_cell(self, daytime_window):
        with pytest.raises(ValueError):
            skew_indicators(daytime_window, REGION, cell_m=0)

    def test_bus_data_is_geographically_sparse(self, daytime_window):
        skew = skew_indicators(daytime_window, REGION)
        # Two bus routes cover a small fraction of the city's 500 m cells.
        assert 0.0 < skew.covered_area_fraction < 0.5
        assert skew.tuple_count == len(daytime_window)

    def test_gap_detection(self):
        t = np.array([0.0, 60.0, 120.0, 7200.0])  # 2-hour silence
        batch = TupleBatch(t, np.zeros(4), np.zeros(4), np.full(4, 450.0))
        skew = skew_indicators(batch, REGION)
        assert skew.largest_gap_s == pytest.approx(7080.0)

    def test_tuples_per_model_uses_result(self, daytime_window):
        result = fit_adkmn(daytime_window, AdKMNConfig())
        skew = skew_indicators(daytime_window, REGION, result)
        assert skew.tuples_per_model == pytest.approx(
            len(daytime_window) / result.cover.size
        )

    def test_sparse_flag(self):
        batch = TupleBatch([0.0] * 5, [1.0] * 5, [1.0] * 5, [450.0] * 5)
        assert skew_indicators(batch, REGION).is_sparse


class TestCoverHealth:
    def test_staleness(self, daytime_window):
        result = fit_adkmn(daytime_window, AdKMNConfig(tau_n_pct=8.0))
        now = float(daytime_window.t[-1]) + 1800.0
        health = cover_health(result, now, daytime_window)
        assert health.staleness_s == pytest.approx(1800.0)
        assert health.converged  # loose tau converges without splits
        assert not health.needs_attention

    def test_stale_cover_flags_attention(self, daytime_window):
        result = fit_adkmn(daytime_window, AdKMNConfig(tau_n_pct=8.0))
        now = float(daytime_window.t[-1]) + 5 * 3600.0
        assert cover_health(result, now, daytime_window).needs_attention

    def test_unconverged_cover_flags_attention(self, daytime_window):
        # A τn below the sensor-noise floor cannot converge: min_split_size
        # blocks the endless split cascade and the health record says so.
        result = fit_adkmn(daytime_window, AdKMNConfig(tau_n_pct=0.2))
        assert not result.converged
        now = float(daytime_window.t[-1])
        assert cover_health(result, now, daytime_window).needs_attention

    def test_clock_before_window_is_not_negative(self, daytime_window):
        result = fit_adkmn(daytime_window, AdKMNConfig())
        health = cover_health(result, 0.0, daytime_window)
        assert health.staleness_s == 0.0


class TestDashboard:
    def test_no_data(self):
        panel = Dashboard(protocol_service(), REGION).render(0.0)
        assert "no data" in panel

    def test_full_panel(self, small_batch):
        server = protocol_service(h=240)
        server.ingest(small_batch)
        now = float(small_batch.t[500])
        panel = Dashboard(server, REGION).render(now)
        assert "EnviroMeter server status" in panel
        assert "models" in panel
        assert "skew" in panel
        assert "t_n" in panel

    def test_panel_reflects_traffic(self, small_batch):
        from repro.network.messages import QueryRequest

        server = protocol_service(h=240)
        server.ingest(small_batch)
        now = float(small_batch.t[500])
        server.handle(QueryRequest(t=now, x=2000.0, y=1500.0))
        panel = Dashboard(server, REGION).render(now)
        assert "1 value responses" in panel

    def test_panel_reads_the_servers_rows_and_served_cover(self, small_batch):
        from repro.core.cover import ModelCover
        from repro.network.messages import ModelRequest

        server = protocol_service(h=240)
        server.ingest(small_batch.slice(0, 1000))
        now = float(small_batch.t[700])
        panel = Dashboard(server, REGION).render(now)
        assert "data: 1000 tuples ingested; window 2 (240 tuples)" in panel
        # The panel's t_n is the one the server ships for the window.
        served = ModelCover.from_blob(
            server.handle(ModelRequest(t=now, x=0.0, y=0.0)).blob
        )
        assert f"t_n = {served.valid_until:.0f}" in panel
