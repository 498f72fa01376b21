"""Ingest throughput and steady-state ingest->query latency.

Not a paper figure — this measures the reproduction's shard column
(``repro/storage/README.md``): bulk appends as vectorized column fills
versus the seed's per-element Python loop, and the cost of reading a
shard's whole column after a replayed day of small ingest batches
(which must stay flat as history grows, since reads are zero-copy views
rather than a ``np.concatenate`` of the full history).

Run standalone for the headline numbers on the 1-day Lausanne fixture::

    PYTHONPATH=src python benchmarks/bench_ingest.py

which also checks the acceptance bar: vectorized bulk appends must be at
least 10x faster than the seed path.  ``--smoke`` shrinks the workload
for CI.
"""

from __future__ import annotations

import sys
from typing import List

import numpy as np
import pytest

from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset
from repro.eval.timing import time_callable
from repro.network.messages import QueryRequest
from repro.query.sharded import ShardedQueryEngine
from repro.server.async_server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.server.stream import StreamReplayer
from repro.storage.shards import _ShardColumn, single_shard_router

REPEATS = 5
REPLAY_INTERVAL_S = 600.0
QUERY_POSITION = (2500.0, 1800.0)


def day_fixture():
    """The deterministic 1-day Lausanne dataset (~5.9 K tuples)."""
    return generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0, seed=7))


class SeedColumn:
    """The seed storage path, kept as the benchmark reference: a chunked
    column whose ``extend`` appends element by element and whose snapshot
    re-concatenates the full history."""

    CHUNK = 8_192

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._chunks: List[np.ndarray] = []
        self._tail = np.empty(self.CHUNK, dtype=self.dtype)
        self._tail_len = 0

    def append(self, value):
        self._tail[self._tail_len] = value
        self._tail_len += 1
        if self._tail_len == self.CHUNK:
            self._chunks.append(self._tail)
            self._tail = np.empty(self.CHUNK, dtype=self.dtype)
            self._tail_len = 0

    def extend(self, values):
        for v in np.asarray(values, dtype=self.dtype):
            self.append(v)

    def snapshot(self):
        parts = self._chunks + [self._tail[: self._tail_len]]
        return np.concatenate(parts)


def seed_ingest(batch) -> None:
    """Ingest one batch the seed way: four per-element column loops."""
    cols = [SeedColumn() for _ in range(4)]
    for col, arr in zip(cols, (batch.t, batch.x, batch.y, batch.s)):
        col.extend(arr)


def bulk_ingest(batch) -> None:
    """Ingest one batch through the vectorized storage path: one shard
    column's five slice fills (``t``, ``x``, ``y``, ``s`` and the gid)."""
    _ShardColumn().append(batch, np.arange(len(batch)))


def append_throughput(batch, repeats=REPEATS):
    """(seed_rows_per_s, bulk_rows_per_s) for ingesting ``batch``."""
    n = len(batch)
    seed_s = time_callable(lambda: seed_ingest(batch), repeats=repeats)
    bulk_s = time_callable(lambda: bulk_ingest(batch), repeats=repeats)
    return n / seed_s, n / bulk_s


def _one_shard_service() -> EngineQueryService:
    """The paper's deployment: the protocol over a one-shard engine."""
    return EngineQueryService(
        ShardedQueryEngine(
            single_shard_router(240), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY
        ),
        method="model-cover",
    )


def replayed_query_latencies(batch, interval_s=REPLAY_INTERVAL_S):
    """Per-query latency over a replayed stream: after each ingest batch,
    one point query against the service.  Returns (history_sizes, seconds)."""
    service = _one_shard_service()
    replayer = StreamReplayer(service, batch_interval_s=interval_s)
    x, y = QUERY_POSITION
    sizes, latencies = [], []
    for _, piece in replayer.slices(batch):
        service.ingest(piece)
        t = float(piece.t[-1])
        latencies.append(
            time_callable(lambda: service.handle(QueryRequest(t=t, x=x, y=y)))
        )
        sizes.append(service.engine.router.global_count())
    return sizes, latencies


def snapshot_cost(batch, interval_s=REPLAY_INTERVAL_S, repeats=REPEATS):
    """(first_s, last_s) cost of a full-column read right after the
    first ingest batch and after the whole day — flat for zero-copy."""
    service = _one_shard_service()
    router = service.engine.router
    replayer = StreamReplayer(service, batch_interval_s=interval_s)
    first_s = None
    for _, piece in replayer.slices(batch):
        service.ingest(piece)
        if first_s is None:
            first_s = time_callable(lambda: router.shard_column(0), repeats=repeats)
    last_s = time_callable(lambda: router.shard_column(0), repeats=repeats)
    return first_s or 0.0, last_s


# -- pytest-benchmark entry points -----------------------------------------


@pytest.fixture(scope="module")
def day_dataset():
    return day_fixture()


@pytest.mark.parametrize("path", ("seed", "vectorized"))
def bench_bulk_append(benchmark, day_dataset, path):
    batch = day_dataset.tuples
    benchmark.group = f"bulk append {len(batch)} tuples"
    benchmark.extra_info["path"] = path
    if path == "seed":
        benchmark(lambda: seed_ingest(batch))
    else:
        benchmark(lambda: bulk_ingest(batch))


def bench_ingest_query_steady_state(benchmark, day_dataset):
    batch = day_dataset.tuples
    benchmark.group = "replayed day ingest+query"
    sizes, latencies = benchmark(lambda: replayed_query_latencies(batch))
    benchmark.extra_info["final_history"] = sizes[-1] if sizes else 0
    benchmark.extra_info["mean_query_ms"] = 1e3 * float(np.mean(latencies))


# -- standalone report ------------------------------------------------------


def main(smoke: bool = False) -> int:
    dataset = day_fixture()
    batch = dataset.tuples
    if smoke:
        batch = batch.slice(0, min(len(batch), 1500))
    repeats = 2 if smoke else REPEATS
    print(f"1-day Lausanne fixture: {len(batch)} tuples{' (smoke)' if smoke else ''}")

    seed_tput, bulk_tput = append_throughput(batch, repeats=repeats)
    speedup = bulk_tput / seed_tput
    print("\nbulk-append throughput (5-column shard column):")
    print(f"  seed per-element loop  {seed_tput:>12,.0f} rows/s")
    print(f"  vectorized chunk fill  {bulk_tput:>12,.0f} rows/s")
    print(f"  speedup                {speedup:>11.1f}x")

    first_s, last_s = snapshot_cost(batch, repeats=repeats)
    print("\nfull-column read cost (zero-copy, must stay flat):")
    print(f"  after first batch      {first_s * 1e6:>10.1f}us")
    print(f"  after full replay      {last_s * 1e6:>10.1f}us")

    sizes, latencies = replayed_query_latencies(batch)
    if latencies:
        half = len(latencies) // 2 or 1
        early = 1e3 * float(np.mean(latencies[:half]))
        late = 1e3 * float(np.mean(latencies[half:]))
        print("\nsteady-state ingest->query latency over the replayed day:")
        print(f"  batches={len(latencies)}  final history={sizes[-1]} tuples")
        print(f"  first half mean  {early:>8.2f}ms")
        print(f"  second half mean {late:>8.2f}ms")

    ok = speedup >= 10.0
    print(f"\nacceptance (bulk append >= 10x seed path): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(smoke="--smoke" in sys.argv[1:]))
