"""Region-sharded scatter-gather throughput versus a single shard.

Not a paper figure — this measures the reproduction's sharding layer
(``repro/query/README.md``): heatmap grids and continuous streams
answered by a :class:`~repro.query.sharded.ShardedQueryEngine` over 1,
2 and 4 region shards.  The 1-shard configuration is the baseline (it
runs the identical scatter/merge machinery, so the comparison isolates
what sharding buys: each shard scans only its region's slice of the
window, and only for the probes whose query disk can reach its region).
Answers are byte-identical across shard counts, so the speedup is free
of any accuracy trade.

Run standalone for the headline numbers on the 1-day Lausanne fixture::

    PYTHONPATH=src python benchmarks/bench_sharded.py

which also checks the acceptance bar: byte-identical grids, and no shard
count slower than the single shard (within ``SLOWER_TOLERANCE``, the
run-to-run noise of a three-repeat timing).  ``--smoke`` shrinks the
workload for CI (and skips the timing half of the bar — a loaded CI box
is not a benchmark rig).  The absolute seconds per grid for every shard
count go to ``BENCH_sharded.json``; they, not a ratio, are the record.

The bar used to be "4 shards at least 2x the 1-shard throughput".  That
ratio compared two in-process code paths, and it rewarded a slow
baseline: the 1-shard configuration ran its one whole-window scan as a
single pool task through 25 MB of hit-triple temporaries, so every
speedup of the shared exact gather *lowered* it.  The blocked gather
made the 1-shard grid about four times faster (188 -> 46 ms) and the
4-shard grid about twice as fast (66 -> 33 ms) — every absolute time
better, the ratio down from 2.8x to 1.4x, and what is left of it is
pruning (the 4-shard time used to include two pool threads; the blocked
loop is serial).  What sharding must still guarantee is that carving
the window up never costs: that is the bar.

Both modes also time the planner's contract: on two synthetic scenarios
(a 30x20 heatmap on one shard, a 600-query continuous stream over 4
shards) ``method="auto"`` must not take longer than
``AUTO_MARGIN`` x the slowest fixed method, best of ``AUTO_REPEATS``
warm timings each.  Tier-1 checks the same contract on the planner's
cost estimates (``tests/test_query_pipeline.py``), which are
deterministic; this is its wall-clock form.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.eval.timing import time_callable
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter, single_shard_router

try:  # pytest / smoke-test import (repo root on sys.path)
    from benchmarks.conftest import (
        day_fixture,
        shard_histogram,
        sharded_day_engine,
        write_bench_json,
    )
except ImportError:  # standalone: python benchmarks/bench_sharded.py
    from conftest import (
        day_fixture,
        shard_histogram,
        sharded_day_engine,
        write_bench_json,
    )

SHARD_COUNTS = (1, 2, 4)
GRID_NX, GRID_NY = 64, 48
RADIUS_M = 500.0
INGEST_BATCH = 1_500
REPEATS = 3
SLOWER_TOLERANCE = 1.10  # a shard count may read this much over 1-shard
AUTO_FIXED = ("naive", "vptree", "model-cover")
AUTO_MARGIN = 1.5  # auto may read this much over the slowest fixed method
AUTO_REPEATS = 3
AUTO_BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)


def sharded_engine(
    dataset, n_shards: int, radius_m: float = RADIUS_M, h: int | None = None
) -> ShardedQueryEngine:
    """Router + engine over ``n_shards`` regions, fed in ingest batches.

    ``h`` defaults to the stream length: the heatmap experiment renders
    from the full day's window so the scan cost (what sharding prunes)
    is the dominant term, as it is at city scale.
    """
    return sharded_day_engine(
        dataset, n_shards, radius_m=radius_m, h=h, ingest_batch=INGEST_BATCH
    )


def heatmap_time(
    engine: ShardedQueryEngine, dataset, nx=GRID_NX, ny=GRID_NY, repeats=REPEATS
) -> float:
    """Seconds per full heatmap grid (cache warmed)."""
    t = float(dataset.tuples.t[-1])
    bounds = dataset.covered_bbox()
    engine.heatmap_grid(t, bounds, nx=nx, ny=ny)  # warm planner/index caches
    return time_callable(
        lambda: engine.heatmap_grid(t, bounds, nx=nx, ny=ny), repeats=repeats
    )


def heatmap_grids(dataset, shard_counts=SHARD_COUNTS, nx=GRID_NX, ny=GRID_NY):
    """One grid per shard count — the byte-identity check the bar rides on."""
    t = float(dataset.tuples.t[-1])
    bounds = dataset.covered_bbox()
    return [
        sharded_engine(dataset, n).heatmap_grid(t, bounds, nx=nx, ny=ny)
        for n in shard_counts
    ]


def _auto_stream(rng: np.random.Generator, n: int = 3000) -> TupleBatch:
    t = np.cumsum(rng.uniform(1.0, 30.0, n))
    return TupleBatch(
        t,
        rng.uniform(0.0, 6000.0, n),
        rng.uniform(0.0, 4000.0, n),
        rng.uniform(350.0, 600.0, n),
    )


def auto_scenarios():
    """``{scenario: run(method)}`` for the planner's wall-clock check."""
    rng = np.random.default_rng(41)
    stream = _auto_stream(rng)
    router = single_shard_router(h=240)
    router.ingest(stream)
    engine = ShardedQueryEngine(router, radius_m=900.0, max_workers=1)
    t, box = float(stream.t[-1]), AUTO_BOUNDS

    def heatmap(method):
        engine.heatmap_grid(t, box, nx=30, ny=20, method=method)

    rng = np.random.default_rng(42)
    stream = _auto_stream(rng)
    router = ShardRouter(RegionGrid.for_shard_count(box, 4), h=240)
    router.ingest(stream)
    sharded = ShardedQueryEngine(router, radius_m=900.0, max_workers=1)
    queries = QueryBatch(
        np.linspace(float(stream.t[0]), float(stream.t[-1]), 600),
        rng.uniform(0, 6000, 600),
        rng.uniform(0, 4000, 600),
    )

    def continuous(method):
        sharded.continuous_query_batch(queries, method=method)

    return {"heatmap": heatmap, "sharded_continuous": continuous}


def auto_times(repeats: int = AUTO_REPEATS):
    """Best-of seconds per method (caches warmed), per scenario."""
    out = {}
    for name, run in auto_scenarios().items():
        out[name] = {}
        for method in AUTO_FIXED + ("auto",):
            run(method)  # warm caches / verdicts / covers
            out[name][method] = time_callable(
                lambda m=method: run(m), repeats=repeats
            )
    return out


# -- pytest-benchmark entry points -----------------------------------------


@pytest.fixture(scope="module")
def day_dataset():
    return day_fixture()


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def bench_sharded_heatmap(benchmark, day_dataset, n_shards):
    engine = sharded_engine(day_dataset, n_shards)
    t = float(day_dataset.tuples.t[-1])
    bounds = day_dataset.covered_bbox()
    engine.heatmap_grid(t, bounds, nx=GRID_NX, ny=GRID_NY)
    benchmark.group = f"sharded heatmap {GRID_NX}x{GRID_NY} r={RADIUS_M:.0f}m"
    benchmark.extra_info["n_shards"] = n_shards
    benchmark(lambda: engine.heatmap_grid(t, bounds, nx=GRID_NX, ny=GRID_NY))


# -- standalone report ------------------------------------------------------


def main(smoke: bool = False) -> int:
    dataset = day_fixture()
    nx, ny = (24, 18) if smoke else (GRID_NX, GRID_NY)
    repeats = 1 if smoke else REPEATS
    print(
        f"1-day Lausanne fixture: {len(dataset.tuples)} tuples"
        f"{' (smoke)' if smoke else ''}"
    )

    grids = heatmap_grids(dataset, nx=nx, ny=ny)
    identical = all(
        np.array_equal(grids[0], g, equal_nan=True) for g in grids[1:]
    )
    print(
        f"\nbyte-identity across shard counts {SHARD_COUNTS}: "
        f"{'OK' if identical else 'BROKEN'}"
    )

    print(f"\nheatmap grid {nx}x{ny}, radius {RADIUS_M:.0f} m, day-long window:")
    print(f"  {'shards':<8} {'time':>10} {'grids/s':>9} {'vs 1':>9}")
    times = {}
    histogram = None
    for n in SHARD_COUNTS:
        engine = sharded_engine(dataset, n)
        times[n] = heatmap_time(engine, dataset, nx=nx, ny=ny, repeats=repeats)
        histogram = shard_histogram(engine.router)  # widest layout wins
        print(
            f"  {n:<8} {times[n] * 1e3:>8.1f}ms {1.0 / times[n]:>9.2f}"
            f" {times[1] / times[n]:>8.2f}x"
        )

    slowest = max(times[n] / times[1] for n in SHARD_COUNTS)

    print(
        f"\nauto vs the slowest fixed method {AUTO_FIXED} "
        f"(best of {AUTO_REPEATS}, bar {AUTO_MARGIN:.1f}x):"
    )
    planner_times = auto_times()
    auto_ratio = {}
    for name, per_method in planner_times.items():
        worst = max(per_method[m] for m in AUTO_FIXED)
        auto_ratio[name] = per_method["auto"] / worst
        print(
            f"  {name:<20} auto {per_method['auto'] * 1e3:>7.1f}ms  "
            f"slowest fixed {worst * 1e3:>7.1f}ms  {auto_ratio[name]:.2f}x"
        )
    auto_ok = all(r <= AUTO_MARGIN for r in auto_ratio.values())
    path = write_bench_json(
        "sharded",
        {
            "benchmark": "sharded",
            "mode": "smoke" if smoke else "full",
            "workload": {
                "grid": [nx, ny],
                "radius_m": RADIUS_M,
                "shard_counts": list(SHARD_COUNTS),
                "repeats": repeats,
                "tuples": len(dataset.tuples),
            },
            "seconds_per_grid": {str(n): times[n] for n in SHARD_COUNTS},
            "slowest_vs_1_shard": slowest,
            "byte_identical": identical,
            "slower_tolerance": SLOWER_TOLERANCE,
            "shard_histogram": histogram,
            "auto_seconds": planner_times,
            "auto_vs_slowest_fixed": auto_ratio,
            "auto_margin": AUTO_MARGIN,
        },
    )
    print(f"\nwrote {path.name}")
    if smoke:
        print(
            f"slowest shard count at {slowest:.2f}x the 1-shard time "
            "(smoke mode: shard-count timing bar not enforced)"
        )
        ok = identical and auto_ok
        print(
            f"acceptance (byte-identical answers and auto within "
            f"{AUTO_MARGIN:.1f}x the slowest fixed method): "
            f"{'PASS' if ok else 'FAIL'}"
        )
        return 0 if ok else 1
    ok = identical and slowest <= SLOWER_TOLERANCE and auto_ok
    print(
        f"acceptance (byte-identical answers, no shard count over "
        f"{SLOWER_TOLERANCE:.2f}x the 1-shard time, slowest {slowest:.2f}x; "
        f"auto within {AUTO_MARGIN:.1f}x the slowest fixed method): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(smoke="--smoke" in sys.argv[1:]))
