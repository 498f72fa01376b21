"""Ablation: cover validity horizon vs bandwidth (DESIGN.md §5.4).

The service's ``validity_horizon_s`` decides how long a shipped cover
stays valid on the phone (its t_n).  Short horizons force model-cache
clients to refresh often — trading bandwidth for freshness.  For a fixed
2-hour continuous query we sweep the horizon and record refresh counts
and traffic; at the long end model-cache converges to the single-refresh
behaviour of Figure 7(b), at the short end it degrades toward baseline.
"""

from __future__ import annotations

import pytest

from repro.client.modelcache import ModelCacheClient
from repro.eval.experiments import _mid_window
from repro.network.link import GPRS, CellularLink
from repro.query.continuous import uniform_query_tuples, waypoint_trajectory
from repro.query.sharded import ShardedQueryEngine
from repro.server.async_server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router

N_QUERIES = 120
INTERVAL_S = 60.0
HORIZONS_S = (600.0, 1800.0, 3600.0, 4 * 3600.0)


@pytest.fixture(scope="module")
def queries(dataset):
    _, w = _mid_window(dataset, 240)
    t_start = float(w.t[0])
    bbox = dataset.covered_bbox()
    route = [
        (bbox.min_x + 0.3 * bbox.width, bbox.min_y + 0.3 * bbox.height),
        (bbox.min_x + 0.7 * bbox.width, bbox.min_y + 0.7 * bbox.height),
    ]
    traj = waypoint_trajectory(route, t_start, t_start + N_QUERIES * INTERVAL_S)
    return uniform_query_tuples(traj, t_start, INTERVAL_S, N_QUERIES)


@pytest.mark.parametrize("horizon_s", HORIZONS_S)
def bench_cache_ttl(benchmark, dataset, queries, horizon_s):
    service = EngineQueryService(
        ShardedQueryEngine(
            single_shard_router(240), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY
        ),
        method="model-cover",
        validity_horizon_s=horizon_s,
    )
    service.ingest(dataset.tuples)

    def run():
        client = ModelCacheClient(service, CellularLink(GPRS))
        client.run_continuous(queries)
        return client

    client = benchmark(run)
    benchmark.group = "ablation: cache TTL"
    benchmark.extra_info["horizon_s"] = horizon_s
    benchmark.extra_info["refreshes"] = client.cache_refreshes
    benchmark.extra_info["received_kb"] = round(client.stats.received_kb, 2)
    benchmark.extra_info["network_time_s"] = round(client.stats.network_time_s, 2)
    # Longer horizons can only reduce refreshes for the same workload.
    assert client.cache_refreshes >= 1
