"""Figure 7(b): bandwidth optimization.

A continuous query of 100 tuples over a simulated GPRS link, baseline vs
model-cache.  Sent/received kilobytes and modelled network time are
attached as ``extra_info``; the wall-time benchmark covers the end-to-end
client run (requests, server processing, cache refresh logic).

Paper headline: model-cache uses 113x less sent, ~31x less received
traffic and ~100x less time than the baseline.
"""

from __future__ import annotations

import pytest

from repro.client.baseline import BaselineClient
from repro.client.modelcache import ModelCacheClient
from repro.eval.experiments import PAPER_BANDWIDTH_TUPLES, _mid_window
from repro.network.link import GPRS, CellularLink
from repro.query.continuous import uniform_query_tuples, waypoint_trajectory
from repro.query.sharded import ShardedQueryEngine
from repro.server.async_server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router


@pytest.fixture(scope="module")
def server(dataset):
    service = EngineQueryService(
        ShardedQueryEngine(
            single_shard_router(240), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY
        ),
        method="model-cover",
    )
    service.ingest(dataset.tuples)
    return service


@pytest.fixture(scope="module")
def queries(dataset):
    _, w = _mid_window(dataset, 240)
    t_start = float(w.t[0])
    bbox = dataset.covered_bbox()
    route = [
        (bbox.min_x + 0.2 * bbox.width, bbox.min_y + 0.2 * bbox.height),
        (bbox.min_x + 0.5 * bbox.width, bbox.min_y + 0.6 * bbox.height),
        (bbox.min_x + 0.8 * bbox.width, bbox.min_y + 0.8 * bbox.height),
    ]
    traj = waypoint_trajectory(route, t_start, t_start + PAPER_BANDWIDTH_TUPLES * 60.0)
    return uniform_query_tuples(traj, t_start, 60.0, PAPER_BANDWIDTH_TUPLES)


def bench_baseline_client(benchmark, server, queries):
    def run():
        client = BaselineClient(server, CellularLink(GPRS))
        client.run_continuous(queries)
        return client.stats

    stats = benchmark(run)
    benchmark.group = "fig7b bandwidth"
    benchmark.extra_info["sent_kb"] = round(stats.sent_kb, 2)
    benchmark.extra_info["received_kb"] = round(stats.received_kb, 2)
    benchmark.extra_info["network_time_s"] = round(stats.network_time_s, 2)


def bench_model_cache_client(benchmark, server, queries):
    def run():
        client = ModelCacheClient(server, CellularLink(GPRS))
        client.run_continuous(queries)
        return client.stats

    stats = benchmark(run)
    benchmark.group = "fig7b bandwidth"
    benchmark.extra_info["sent_kb"] = round(stats.sent_kb, 3)
    benchmark.extra_info["received_kb"] = round(stats.received_kb, 3)
    benchmark.extra_info["network_time_s"] = round(stats.network_time_s, 2)


def bench_bandwidth_ratios(benchmark, server, queries):
    """The full Figure 7(b) in one entry, with the headline ratios."""

    def run():
        base = BaselineClient(server, CellularLink(GPRS))
        base.run_continuous(queries)
        cache = ModelCacheClient(server, CellularLink(GPRS))
        cache.run_continuous(queries)
        return base.stats, cache.stats

    base, cache = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = "fig7b bandwidth"
    sent_x = base.sent_bytes / cache.sent_bytes
    recv_x = base.received_bytes / cache.received_bytes
    time_x = base.network_time_s / cache.network_time_s
    benchmark.extra_info["sent_ratio"] = round(sent_x, 1)
    benchmark.extra_info["received_ratio"] = round(recv_x, 1)
    benchmark.extra_info["time_ratio"] = round(time_x, 1)
    # Order-of-magnitude shape of the paper's 113x / 31x / 100x.
    assert sent_x > 50
    assert recv_x > 10
    assert time_x > 50
