"""Shared benchmark fixtures.

The full-scale 176 K-tuple *lausanne-data* is generated once per session;
every figure benchmark evaluates against it, exactly as the paper's
evaluation uses one dataset for all experiments.

Randomness: benchmarks must be reproducible run-to-run (CI smoke results
are diffed), so none of them may seed or read global RNG state.  Each
benchmark derives its own :class:`numpy.random.Generator` — via the
``bench_rng`` fixture (seeded from the test's node id) or
:func:`rng_for` (seeded from an explicit label in standalone ``main``
runs) — and threads it through its workload builders.
"""

from __future__ import annotations

import json
import pathlib
import zlib

import numpy as np
import pytest

from repro.data.lausanne import LausanneConfig, LausanneDataset, generate_lausanne_dataset
from repro.eval.experiments import (
    PAPER_RADIUS_M,
    PAPER_TAU_N,
    _mid_window,
    _query_workload,
    experiment_dataset,
)


def rng_for(label: str) -> np.random.Generator:
    """A per-benchmark seeded generator, derived from a stable label.

    The label (a test node id, or an explicit string in standalone
    runs) is hashed to the seed, so every benchmark gets its own
    deterministic stream, independent of execution order and of any
    global seeding."""
    return np.random.default_rng(zlib.crc32(label.encode("utf-8")))


@pytest.fixture()
def bench_rng(request) -> np.random.Generator:
    """Per-benchmark seeded ``numpy.random.Generator`` (node-id keyed)."""
    return rng_for(request.node.nodeid)


@pytest.fixture(scope="session")
def dataset() -> LausanneDataset:
    """The full 176 K-tuple synthetic lausanne-data (seeded)."""
    return experiment_dataset()


@pytest.fixture(scope="session")
def radius_m() -> float:
    return PAPER_RADIUS_M


@pytest.fixture(scope="session")
def tau_n() -> float:
    return PAPER_TAU_N


def window_and_queries(dataset, h, n_queries, seed=11):
    """A mid-deployment window of size ``h`` plus its query workload."""
    _, w = _mid_window(dataset, h)
    return w, _query_workload(dataset, w, n_queries, seed=seed)


# -- shared sharded-benchmark fixture builders ------------------------------
#
# Hoisted from bench_sharded / bench_process_parallel (which used to carry
# copy-pasted versions) so the sharded family of benchmarks builds its
# routers one way.  Plain functions, importable both as
# ``benchmarks.conftest`` (pytest / smoke tests) and as ``conftest``
# (standalone ``python benchmarks/bench_X.py`` runs).


def day_fixture():
    """The deterministic 1-day Lausanne dataset (~5.9 K tuples)."""
    return generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0, seed=7))


def sharded_day_engine(
    dataset,
    n_shards: int,
    radius_m: float = 500.0,
    h: int | None = None,
    ingest_batch: int | None = None,
):
    """Router + :class:`ShardedQueryEngine` over ``n_shards`` regions.

    ``h`` defaults to the stream length (one day-long window, so scan
    cost dominates); ``ingest_batch`` splits ingest into batches of that
    size (None = one bulk ingest).
    """
    from repro.geo.region import RegionGrid
    from repro.query.sharded import ShardedQueryEngine
    from repro.storage.shards import ShardRouter

    tuples = dataset.tuples
    grid = RegionGrid.for_shard_count(dataset.covered_bbox(), n_shards)
    router = ShardRouter(grid, h=h or len(tuples))
    step = ingest_batch or len(tuples)
    for start in range(0, len(tuples), step):
        router.ingest(tuples.slice(start, min(start + step, len(tuples))))
    return ShardedQueryEngine(router, radius_m=radius_m)


def shard_histogram(router) -> dict:
    """Per-shard occupancy histogram for benchmark JSON payloads.

    ``counts`` is tuples per shard slot (index = shard id; retired hole
    slots report 0) and ``skew`` the max/mean coefficient over the
    non-empty layout — the one number that says how lopsided the layout
    the benchmark ran against actually was."""
    from repro.storage.load import skew_coefficient

    counts = [int(c) for c in router.shard_counts()]
    return {
        "counts": counts,
        "n_shards": len(counts),
        "skew": skew_coefficient(counts),
    }


def write_bench_json(name: str, payload: dict) -> pathlib.Path:
    """Write a machine-readable benchmark result to ``BENCH_<name>.json``
    at the repo root (the perf-trajectory artifact CI collects).

    Sharded benchmarks include a ``shard_histogram`` field (see
    :func:`shard_histogram`) so the trajectory records the layout shape
    alongside the timings."""
    path = pathlib.Path(__file__).resolve().parent.parent / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
