"""Tests for repro.client.routes."""

import pytest

from repro.client.osha import classify_co2
from repro.client.routes import RecordedRoute, RoutePoint, RouteRecorder


class TestRoutePoint:
    def test_level_and_color(self):
        p = RoutePoint(t=0, x=0, y=0, co2_ppm=420.0)
        assert p.level is not None
        assert p.marker_color.startswith("#")

    def test_missing_reading(self):
        p = RoutePoint(t=0, x=0, y=0, co2_ppm=None)
        assert p.level is None
        assert p.marker_color is None

    def test_negative_extrapolation_is_classified_clamped(self):
        """A model extrapolated off its sub-region can answer below zero:
        the point keeps the raw value and is classified as zero."""
        p = RoutePoint(t=0, x=-1e6, y=-1e6, co2_ppm=-96_064.0)
        assert p.co2_ppm == -96_064.0
        assert p.level == classify_co2(0.0)
        assert p.marker_color.startswith("#")


class TestRecordedRoute:
    def test_average(self):
        route = RecordedRoute(
            "home",
            [RoutePoint(0, 0, 0, 400.0), RoutePoint(1, 0, 0, 500.0)],
        )
        assert route.average_ppm == 450.0
        assert route.peak_ppm == 500.0
        assert route.acceptable is True

    def test_skips_missing_readings(self):
        route = RecordedRoute(
            "gap",
            [RoutePoint(0, 0, 0, 400.0), RoutePoint(1, 0, 0, None)],
        )
        assert route.average_ppm == 400.0

    def test_all_missing(self):
        route = RecordedRoute("void", [RoutePoint(0, 0, 0, None)])
        assert route.average_ppm is None
        assert route.acceptable is None
        assert "no pollution data" in route.summary_text()

    def test_summary_text_verdict(self):
        ok = RecordedRoute("a", [RoutePoint(0, 0, 0, 450.0)])
        assert "acceptable" in ok.summary_text()
        bad = RecordedRoute("b", [RoutePoint(0, 0, 0, 20_000.0)])
        assert "NOT acceptable" in bad.summary_text()

    def test_negative_average_is_acceptable_clamped(self):
        route = RecordedRoute(
            "off-map", [RoutePoint(0, 0, 0, -500.0), RoutePoint(1, 0, 0, 100.0)]
        )
        assert route.average_ppm == -200.0
        assert route.acceptable is True
        assert "acceptable" in route.summary_text()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RecordedRoute("empty", [])


class TestRecorder:
    def test_full_cycle(self):
        readings = iter([410.0, 430.0, None])
        recorder = RouteRecorder(lambda q: next(readings))
        recorder.start("commute")
        assert recorder.recording
        recorder.update_position(0.0, 10.0, 20.0)
        recorder.update_position(60.0, 30.0, 40.0)
        recorder.update_position(120.0, 50.0, 60.0)
        route = recorder.stop()
        assert not recorder.recording
        assert len(route.points) == 3
        assert route.average_ppm == 420.0

    def test_double_start_rejected(self):
        recorder = RouteRecorder(lambda q: 400.0)
        recorder.start("a")
        with pytest.raises(RuntimeError):
            recorder.start("b")

    def test_update_without_start(self):
        recorder = RouteRecorder(lambda q: 400.0)
        with pytest.raises(RuntimeError):
            recorder.update_position(0, 0, 0)

    def test_stop_without_points(self):
        recorder = RouteRecorder(lambda q: 400.0)
        recorder.start("a")
        with pytest.raises(RuntimeError):
            recorder.stop()

    def test_stop_without_start(self):
        recorder = RouteRecorder(lambda q: 400.0)
        with pytest.raises(RuntimeError):
            recorder.stop()
