#!/usr/bin/env python
"""Fleet-scale EnviroMeter: many users, one server.

The paper's bandwidth experiment covers a single mobile object; a real
deployment serves hundreds.  This example runs a mixed fleet of
commuters — half on the model-cache strategy, half on the baseline —
against one server and shows how aggregate traffic scales: baseline
grows with (members x queries), model-cache with (members x 1), and the
server materialises exactly one cover for all of them.

Run:  python examples/city_fleet.py
"""

from repro.client.fleet import FleetSimulator, commuter_fleet
from repro.data import generate_lausanne_dataset, LausanneConfig
from repro.query.sharded import ShardedQueryEngine
from repro.server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router


def run_fleet(label, dataset, n_members, use_model_cache):
    service = EngineQueryService(
        ShardedQueryEngine(
            single_shard_router(240),
            cache_capacity=DEFAULT_COVER_CACHE_CAPACITY,
        ),
        method="model-cover",
    )
    service.ingest(dataset.tuples)
    t_start = float(dataset.tuples.t[1000])
    fleet = commuter_fleet(
        n_members,
        dataset.covered_bbox(),
        use_model_cache=use_model_cache,
        n_queries=30,
    )
    report = FleetSimulator(service).run(fleet, t_start)
    total = report.total_stats()
    print(
        f"{label:28s} members={n_members:3d}  "
        f"sent={total.sent_kb:8.2f} KB  recv={total.received_kb:8.2f} KB  "
        f"requests={total.sent_messages:5d}  covers-built="
        f"{service.engine.cache_stats.misses}"
    )
    return total


def main() -> None:
    co2 = generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0))

    print("CO2, 30 queries per member:")
    for n in (5, 20, 50):
        run_fleet("  baseline fleet", co2, n, use_model_cache=False)
    print()
    for n in (5, 20, 50):
        run_fleet("  model-cache fleet", co2, n, use_model_cache=True)


if __name__ == "__main__":
    main()
