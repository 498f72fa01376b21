#!/usr/bin/env python
"""Reproduce the bandwidth experiment interactively (§4.2, Figure 7(b)).

Runs the same 100-tuple continuous query through the baseline client and
the model-cache client over a simulated GPRS link, prints both traffic
ledgers and the headline ratios, then repeats the comparison over 3G to
show the ratios are a property of the protocol, not the bearer.

Run:  python examples/bandwidth_audit.py
"""

from repro.client import BaselineClient, ModelCacheClient
from repro.data import generate_lausanne_dataset, LausanneConfig
from repro.network import GPRS, UMTS, CellularLink
from repro.query.continuous import uniform_query_tuples, waypoint_trajectory
from repro.query.sharded import ShardedQueryEngine
from repro.server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router


def run_pair(service, queries, bearer):
    baseline = BaselineClient(service, CellularLink(bearer))
    baseline.run_continuous(queries)
    cache = ModelCacheClient(service, CellularLink(bearer))
    cache.run_continuous(queries)
    return baseline.stats, cache.stats


def report(name, base, cache):
    print(f"--- {name} ---")
    print(f"{'technique':12s} {'sent (kb)':>10s} {'recv (kb)':>10s} {'time (s)':>9s}")
    for label, s in (("baseline", base), ("model-cache", cache)):
        print(
            f"{label:12s} {s.sent_kb:10.2f} {s.received_kb:10.2f} "
            f"{s.network_time_s:9.2f}"
        )
    print(
        f"{'ratios':12s} {base.sent_bytes / cache.sent_bytes:9.0f}x "
        f"{base.received_bytes / cache.received_bytes:9.0f}x "
        f"{base.network_time_s / cache.network_time_s:8.0f}x"
    )
    print()


def main() -> None:
    dataset = generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0))
    service = EngineQueryService(
        ShardedQueryEngine(
            single_shard_router(240), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY
        ),
        method="model-cover",
    )
    service.ingest(dataset.tuples)

    t0 = float(dataset.tuples.t[1500])
    trajectory = waypoint_trajectory(
        [(1200.0, 1100.0), (3000.0, 2200.0), (5000.0, 3000.0)],
        t0,
        t0 + 100 * 60.0,
    )
    queries = uniform_query_tuples(trajectory, t0, 60.0, 100)
    print("continuous query: 100 tuples at 60 s intervals "
          "(paper: 113x sent, 31x received, ~100x time)\n")

    report("GPRS", *run_pair(service, queries, GPRS))
    report("UMTS / 3G", *run_pair(service, queries, UMTS))


if __name__ == "__main__":
    main()
