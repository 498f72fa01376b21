"""Extension benchmark: traffic scaling with fleet size.

Not a paper figure — the paper's Figure 7(b) covers one mobile object.
This sweep shows the platform-level consequence of the model-cache
protocol: total uplink requests grow as O(members) instead of
O(members x queries), and the server builds each window's cover once
regardless of fleet size.
"""

from __future__ import annotations

import pytest

from repro.client.fleet import FleetSimulator, commuter_fleet
from repro.query.sharded import ShardedQueryEngine
from repro.server.async_server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router

FLEET_SIZES = (2, 8, 32)
QUERIES_PER_MEMBER = 30


@pytest.mark.parametrize("n_members", FLEET_SIZES)
@pytest.mark.parametrize("strategy", ("baseline", "model-cache"))
def bench_fleet(benchmark, dataset, strategy, n_members):
    use_cache = strategy == "model-cache"
    t_start = float(dataset.tuples.t[5000])
    bbox = dataset.covered_bbox()

    def run():
        service = EngineQueryService(
            ShardedQueryEngine(
                single_shard_router(240), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY
            ),
            method="model-cover",
        )
        service.ingest(dataset.tuples)
        fleet = commuter_fleet(
            n_members, bbox, use_model_cache=use_cache, n_queries=QUERIES_PER_MEMBER
        )
        return FleetSimulator(service).run(fleet, t_start), service

    report, service = benchmark.pedantic(run, rounds=1, iterations=1)
    total = report.total_stats()
    benchmark.group = f"fleet x{n_members}"
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["sent_kb"] = round(total.sent_kb, 2)
    benchmark.extra_info["received_kb"] = round(total.received_kb, 2)
    benchmark.extra_info["requests"] = total.sent_messages
    benchmark.extra_info["covers_built"] = service.engine.cache_stats.misses
    expected = n_members if use_cache else n_members * QUERIES_PER_MEMBER
    assert total.sent_messages == expected
