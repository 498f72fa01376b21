"""Unit tests of the harness's own arithmetic and generators."""

from __future__ import annotations

import dataclasses
import os

import pytest

from benchmarks.e2e import procstat, stats, trace
from benchmarks.e2e.workloads import (
    WORKLOADS,
    StreamClock,
    encode_http,
    generate_requests,
    make_fixture,
    subscription_frames,
)


@pytest.fixture(scope="module")
def day_fixture(tmp_path_factory):
    return make_fixture(7, 1, tmp_path_factory.mktemp("e2e-fixture"))


# -- request generators ------------------------------------------------------------


def _wire(workload, tuples, seed):
    return [
        encode_http(r.mode, r.stamped(12345.0))
        for r in generate_requests(workload, tuples, seed, count=200)
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_requests_are_a_pure_function_of_the_seed(day_fixture, name):
    w = WORKLOADS[name]
    assert _wire(w, day_fixture.tuples, 7) == _wire(w, day_fixture.tuples, 7)
    assert _wire(w, day_fixture.tuples, 7) != _wire(w, day_fixture.tuples, 11)


def test_fixture_is_reused_and_identical(day_fixture):
    again = make_fixture(7, 1, day_fixture.path.parent)
    assert again.gen_s == 0.0
    assert (again.tuples.t == day_fixture.tuples.t).all()
    assert (again.tuples.s == day_fixture.tuples.s).all()


def test_live_mix_and_stamping(day_fixture):
    w = WORKLOADS["live_mixed"]
    requests = generate_requests(w, day_fixture.tuples, 7, count=2000)
    points = [r for r in requests if r.mode == "point"]
    assert 0.65 < len(points) / len(requests) < 0.75
    r = points[0]
    assert "t" not in r.params
    assert r.stamped(10_000.0)["t"] == round(10_000.0 - r.lag_s, 3)
    frames = subscription_frames(w, day_fixture.tuples, 7)
    assert len(frames) == 8 and frames == subscription_frames(w, day_fixture.tuples, 7)


def test_stream_clock_follows_the_schedule(day_fixture):
    t = day_fixture.tuples.t
    clock = StreamClock(t, 1000)
    assert clock.rows_at() == 1000  # writer paused
    assert clock.rows_at(0.0) == 1100  # batch 0 is due at once
    assert clock.rows_at(0.049) == 1100
    assert clock.rows_at(0.05) == 1200
    assert clock.rows_at(0.05, stretch=2.0) == 1100  # half the rate
    assert clock.stream_t(0.05) == float(t[1199])
    clock.rows = 1200  # the launcher's acknowledgement
    assert clock.rows_at() == 1200
    assert clock.rows_at(1e9) == len(t)


def test_static_workloads_only_query_what_is_preloaded(day_fixture):
    w = dataclasses.replace(WORKLOADS["cold_route"], preload=0.5)
    t = day_fixture.tuples.t
    cut = float(t[len(t) // 2])
    for r in generate_requests(w, day_fixture.tuples, 3, count=100):
        assert r.params["t_start"] <= cut


# -- aggregation -----------------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 100) == 4.0
    assert stats.percentile(samples, 50) == 2.5
    assert stats.percentile(list(range(101)), 95) == 95.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_samples_beyond():
    assert stats.samples_beyond(850, 95) == 42
    assert stats.samples_beyond(850, 99) == 8  # too few for a p99


def test_median_of_rounds_ignores_one_slow_round():
    assert stats.median_of_rounds([100.0, 101.0, 99.0, 100.5, 40.0]) == 100.0


def test_spread():
    assert stats.spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert 0.9 < stats.spread(values) < 1.1


def test_bound_comparison():
    bounds = {"throughput_rps": 0.10, "error_share": 0.0}
    assert stats.within_bound("throughput_rps", 100.0, 109.0, bounds)
    assert not stats.within_bound("throughput_rps", 100.0, 112.0, bounds)
    assert stats.within_bound("throughput_rps", 109.0, 100.0, bounds)  # symmetric
    # error_share is absolute: any error fails, however small the gap.
    assert stats.within_bound("error_share", 0.0, 0.0, bounds)
    assert not stats.within_bound("error_share", 0.0, 1e-6, bounds)


# -- spans ---------------------------------------------------------------------------------


def test_span_self_time_is_duration_minus_direct_children():
    rec = trace.Recorder()
    root = trace.Span("root", 0.0, 10.0, None, 0)
    child = trace.Span("child", 1.0, 7.0, root, 0)
    grandchild = trace.Span("grandchild", 2.0, 4.0, child, 0)
    sibling = trace.Span("child", 7.0, 8.0, root, 0)
    rec.spans += [root, child, grandchild, sibling]
    assert trace.self_times(rec.spans) == [3.0, 4.0, 2.0, 1.0]
    by_name = trace.per_request(rec.spans, trace.self_times(rec.spans))
    assert by_name["child"][0] == 5.0


def test_recorder_nests_spans_and_tags_requests():
    rec = trace.Recorder()
    rec.request = 3
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            pass
        rec.add("measured-inside", outer, 0.0)
    assert inner.parent is outer and outer.parent is None
    assert [s.request for s in rec.spans] == [3, 3, 3]
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert rec.spans[2].parent is outer


# -- /proc readers ---------------------------------------------------------------------------


def test_parse_cpu_seconds_survives_awkward_command_names():
    tick = os.sysconf("SC_CLK_TCK")
    line = "42 (my (odd) name) S " + " ".join(["0"] * 10) + " 150 50 20 10 " + "0 " * 20
    assert procstat.parse_cpu_seconds(line) == pytest.approx(230 / tick)


def test_parse_peak_rss():
    assert procstat.parse_peak_rss_mb("Name:\tx\nVmHWM:\t   20480 kB\n") == 20.0
    with pytest.raises(ValueError):
        procstat.parse_peak_rss_mb("Name:\tx\n")


def test_proc_readers_on_this_process():
    before = procstat.cpu_seconds(os.getpid())
    sum(i * i for i in range(300_000))
    assert procstat.cpu_seconds(os.getpid()) >= before
    assert procstat.peak_rss_mb(os.getpid()) > 5.0
