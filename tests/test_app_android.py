"""Tests for repro.app.android — the simulated Android session."""

import pytest

from repro.app.android import AndroidSession
from repro.app.settings import AppSettings

from one_shard import protocol_service


@pytest.fixture()
def server(small_batch):
    srv = protocol_service(h=240)
    srv.ingest(small_batch)
    return srv


@pytest.fixture()
def session(server, small_batch):
    s = AndroidSession(server)
    s.set_clock(float(small_batch.t[300]))
    return s


class TestCurrentReading:
    def test_requires_gps_fix(self, session):
        with pytest.raises(RuntimeError):
            session.current_reading()

    def test_reading_at_position(self, session):
        session.update_position(2000.0, 1500.0)
        value = session.current_reading()
        assert value is not None
        assert "ppm" in session.current_reading_text()

    def test_clock_monotonic(self, session):
        with pytest.raises(ValueError):
            session.set_clock(0.0)


class TestRouteRecording:
    def test_record_and_summarise(self, session, small_batch):
        t0 = float(small_batch.t[300])
        session.start_route_recording("commute")
        for i in range(5):
            session.record_position(t0 + 60.0 * i, 1500.0 + 200 * i, 1200.0 + 150 * i)
        route = session.stop_route_recording()
        assert len(route.points) == 5
        assert route.average_ppm is not None
        assert "commute" in route.summary_text()

    def test_double_recording_rejected(self, session):
        session.start_route_recording("a")
        with pytest.raises(RuntimeError):
            session.start_route_recording("b")

    def test_record_without_start(self, session):
        with pytest.raises(RuntimeError):
            session.record_position(1e9, 0, 0)

    def test_drive_route_uses_configured_interval(self, server, small_batch):
        session = AndroidSession(
            server, AppSettings(position_update_interval_s=120.0)
        )
        t0 = float(small_batch.t[300])
        route = session.drive_route(
            [(1000.0, 1000.0), (2500.0, 2000.0)], t0, duration_s=600.0
        )
        assert len(route.points) == 6  # 600 s / 120 s + 1


class TestSettingsAndTraffic:
    def test_model_cache_default_is_light_on_traffic(self, session, small_batch):
        t0 = float(small_batch.t[300])
        session.update_position(2000.0, 1500.0)
        for i in range(10):
            session.set_clock(t0 + 60.0 * i)
            session.current_reading()
        assert session.traffic.sent_messages == 1  # one model request

    def test_switching_strategy_recreates_client(self, session, server, small_batch):
        session.update_position(2000.0, 1500.0)
        session.current_reading()
        session.apply_settings(session.settings.with_model_cache(False))
        session.current_reading()
        # Baseline client: the reading went to the server as a value query.
        assert server.engine.metrics["served"].values >= 1

    def test_settings_change_without_strategy_keeps_client(self, session):
        before = session.traffic
        session.apply_settings(session.settings.with_interval(30.0))
        assert session.traffic is before
