"""Plan-time scatter pruning versus the full scatter fan-out.

Not a paper figure — this measures the reproduction's zone-map pruning
pass (``repro/query/pipeline/executor.py``): localized disk queries
against a 16-shard, many-window :class:`~repro.storage.shards.ShardRouter`,
planned twice from the same engine — once with the pruning pass
(geometry + per-(shard, window) :class:`~repro.storage.sketch.WindowSketch`
zone maps, the default) and once as the full scatter (``prune=False``:
every window query reaches every non-empty shard slice).  Pruning only
drops (shard, window) scans that provably contribute zero hits, so both
plans must answer byte-identically — the oracle below enforces that on
every run, bar or no bar, including through the process-parallel
executor (pruned plans fan out to fewer workers, same bytes).

Run standalone for the headline numbers on the 1-day Lausanne fixture::

    PYTHONPATH=src python benchmarks/bench_scatter_pruning.py

which also checks the acceptance bar: the localized continuous stream
must run at least 3x faster pruned than unpruned.  ``--smoke`` shrinks
the workload for CI and lowers the bar to 2x (a loaded CI box is not a
benchmark rig, but an O(relevant shards) plan must still clearly beat
an O(shards x windows) one).  Either mode prints the absolute time of
both plans beside their ratio and writes them (``ms_per_run``) to the
machine-readable ``BENCH_scatter_pruning.json`` perf-trajectory
artifact: a change to the shared exact gather moves the two sides by
different amounts (the unpruned fan-out is one source-set per window,
the pruned plan a few small ones), so the ratio alone cannot say
whether either side got slower.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset
from repro.eval.timing import time_callable
from repro.query.base import QueryBatch
from repro.query.pipeline.parallel import ProcessPlanExecutor

try:  # pytest / smoke-test import (repo root on sys.path)
    from benchmarks.conftest import (
        rng_for,
        shard_histogram,
        sharded_day_engine,
        write_bench_json,
    )
except ImportError:  # standalone: python benchmarks/bench_scatter_pruning.py
    from conftest import (
        rng_for,
        shard_histogram,
        sharded_day_engine,
        write_bench_json,
    )

DAYS = 30
N_SHARDS = 36
N_WINDOWS = 32
RADIUS_M = 300.0
N_QUERIES = 400
GRID_NX, GRID_NY = 24, 18
FOCUS_SIGMA_M = 100.0
REPEATS = 3
ACCEPT_SPEEDUP = 3.0
ACCEPT_SPEEDUP_SMOKE = 2.0


def deployment_fixture():
    """A deterministic 30-day Lausanne deployment (~176 K tuples) — big
    enough that scan cost, the term pruning removes, dominates."""
    return generate_lausanne_dataset(
        LausanneConfig(days=DAYS, target_tuples=0, seed=7)
    )


def pruning_engine(dataset, n_shards: int = N_SHARDS):
    """A many-window sharded engine: ``h`` splits the deployment into
    :data:`N_WINDOWS` global windows, so an unpruned continuous stream
    fans out to O(shards x windows) candidate scans."""
    h = max(len(dataset.tuples) // N_WINDOWS, 1)
    return sharded_day_engine(dataset, n_shards, radius_m=RADIUS_M, h=h)


def focus_point(dataset):
    """A neighbourhood on a bus route away from the dense hotspot.

    The city centre is the adversarial case for pruning (most rows live
    there, so its shards are relevant to every nearby disk); a
    neighbourhood dashboard — the workload pruning is for — watches one
    spot off-centre.  Picking the tuple at the 5th percentile of x
    guarantees real hits without hand-tuning coordinates."""
    tuples = dataset.tuples
    i = int(np.argsort(tuples.x, kind="stable")[int(0.05 * len(tuples))])
    return float(tuples.x[i]), float(tuples.y[i])


def localized_stream(dataset, n_queries: int, label: str) -> QueryBatch:
    """A continuous stream of disk queries clustered around one
    neighbourhood, with timestamps sweeping the whole deployment —
    every window is touched, but each query's disk reaches only a
    couple of shards."""
    rng = rng_for(label)
    tuples = dataset.tuples
    fx, fy = focus_point(dataset)
    picks = rng.integers(0, len(tuples), size=n_queries)
    picks.sort()
    return QueryBatch(
        tuples.t[picks],
        fx + rng.normal(0.0, FOCUS_SIGMA_M, size=n_queries),
        fy + rng.normal(0.0, FOCUS_SIGMA_M, size=n_queries),
    )


def localized_heatmap(dataset, nx: int = GRID_NX, ny: int = GRID_NY) -> QueryBatch:
    """A heatmap grid over a quarter-of-the-region box around the focus
    neighbourhood, rendered mid-deployment (one well-filled window,
    localized probes)."""
    tuples = dataset.tuples
    bounds = dataset.covered_bbox()
    fx, fy = focus_point(dataset)
    w, h = bounds.width / 4, bounds.height / 4
    return QueryBatch.from_grid(
        float(tuples.t[len(tuples) // 2]),
        min(max(fx - w / 2, bounds.min_x), bounds.min_x + bounds.width - w),
        min(max(fy - h / 2, bounds.min_y), bounds.min_y + bounds.height - h),
        w, h, nx, ny,
    )


def run_once(engine, batch: QueryBatch, prune: bool):
    """One plan+execute round trip — planning cost is part of what
    pruning changes, so it stays inside the timed region."""
    return engine.execute(engine.plan(batch, "naive", prune=prune))


def identical(a, b) -> bool:
    return (
        a.values.tobytes() == b.values.tobytes()
        and a.support.tobytes() == b.support.tobytes()
        and a.answered.tobytes() == b.answered.tobytes()
    )


# -- pytest-benchmark entry points -----------------------------------------


@pytest.fixture(scope="module")
def deployment_dataset():
    return deployment_fixture()


@pytest.mark.parametrize("prune", (False, True))
def bench_pruned_continuous(benchmark, deployment_dataset, prune):
    engine = pruning_engine(deployment_dataset)
    batch = localized_stream(deployment_dataset, N_QUERIES, "bench_pruned_continuous")
    run_once(engine, batch, prune)  # warm caches either way
    benchmark.group = f"scatter pruning, {N_SHARDS} shards x {N_WINDOWS} windows"
    benchmark.extra_info["prune"] = prune
    benchmark(lambda: run_once(engine, batch, prune))
    engine.close()


@pytest.mark.parametrize("prune", (False, True))
def bench_pruned_heatmap(benchmark, deployment_dataset, prune):
    engine = pruning_engine(deployment_dataset)
    batch = localized_heatmap(deployment_dataset)
    run_once(engine, batch, prune)
    benchmark.group = f"pruned heatmap {GRID_NX}x{GRID_NY} r={RADIUS_M:.0f}m"
    benchmark.extra_info["prune"] = prune
    benchmark(lambda: run_once(engine, batch, prune))
    engine.close()


# -- standalone report ------------------------------------------------------


def _process_path_identical(engine, plan, expected) -> bool:
    """Pruned plans through the process-parallel executor: fewer ops
    reach the workers, bytes must not move."""
    with ProcessPlanExecutor(engine, processes=2) as executor:
        result = executor.execute(plan)
        fallbacks = engine.metrics["pool_fallbacks"].as_dict()
        return not fallbacks and identical(result, expected)


def main(smoke: bool = False) -> int:
    dataset = deployment_fixture()
    n_queries = 120 if smoke else N_QUERIES
    repeats = 1 if smoke else REPEATS
    bar = ACCEPT_SPEEDUP_SMOKE if smoke else ACCEPT_SPEEDUP
    engine = pruning_engine(dataset)
    h = engine.router.h
    print(
        f"{DAYS}-day Lausanne fixture: {len(dataset.tuples)} tuples, "
        f"{N_SHARDS} shards, h={h} (~{N_WINDOWS} windows)"
        f"{' (smoke)' if smoke else ''}"
    )

    workloads = {
        "continuous": localized_stream(dataset, n_queries, "bench_scatter_pruning"),
        "heatmap": localized_heatmap(dataset),
    }
    times: dict = {}
    oracle_ok = True
    print(
        f"\nlocalized disk queries, radius {RADIUS_M:.0f} m "
        f"(sigma {FOCUS_SIGMA_M:.0f} m around the focus neighbourhood):"
    )
    print(
        f"  {'workload':<12} {'unpruned':>10} {'pruned':>10} {'speedup':>9} "
        f"{'ops':>9} {'identical':>10}"
    )
    for name, batch in workloads.items():
        expected = run_once(engine, batch, prune=False)  # warms both paths
        pruned_plan = engine.plan(batch, "naive", prune=True)
        got = engine.execute(pruned_plan)
        same = identical(got, expected)
        oracle_ok = oracle_ok and same
        t_off = time_callable(lambda: run_once(engine, batch, False), repeats=repeats)
        t_on = time_callable(lambda: run_once(engine, batch, True), repeats=repeats)
        times[name] = {
            "unpruned_s": t_off,
            "pruned_s": t_on,
            "speedup": t_off / t_on,
            "ops_kept": pruned_plan.ops_kept,
            "ops_pruned": pruned_plan.ops_pruned,
            "byte_identical": same,
        }
        ops = f"{pruned_plan.ops_kept}/{pruned_plan.ops_kept + pruned_plan.ops_pruned}"
        print(
            f"  {name:<12} {t_off * 1e3:>8.1f}ms {t_on * 1e3:>8.1f}ms "
            f"{t_off / t_on:>8.2f}x {ops:>9} {'OK' if same else 'BROKEN':>10}"
        )

    stream = workloads["continuous"]
    process_ok = _process_path_identical(
        engine,
        engine.plan(stream, "naive", prune=True),
        run_once(engine, stream, prune=False),
    )
    print(
        f"\nbyte-identity oracle (pruned == unpruned, all workloads): "
        f"{'OK' if oracle_ok else 'BROKEN'}"
    )
    print(
        f"process-parallel path (pruned plan, 2 workers): "
        f"{'OK' if process_ok else 'BROKEN'}"
    )
    histogram = shard_histogram(engine.router)
    engine.close()

    speedup = times["continuous"]["speedup"]
    path = write_bench_json(
        "scatter_pruning",
        {
            "benchmark": "scatter_pruning",
            "mode": "smoke" if smoke else "full",
            "workload": {
                "shards": N_SHARDS,
                "windows": N_WINDOWS,
                "h": h,
                "radius_m": RADIUS_M,
                "n_queries": n_queries,
                "grid": [GRID_NX, GRID_NY],
                "repeats": repeats,
                "tuples": len(dataset.tuples),
            },
            "results": times,
            "ms_per_run": {
                name: {
                    "unpruned": t["unpruned_s"] * 1e3,
                    "pruned": t["pruned_s"] * 1e3,
                }
                for name, t in times.items()
            },
            "process_path_identical": process_ok,
            "accept_speedup": bar,
            "shard_histogram": histogram,
        },
    )
    print(f"wrote {path.name}")

    ok = oracle_ok and process_ok and speedup >= bar
    print(
        f"\nacceptance (byte-identical answers and pruned continuous "
        f"stream >= {bar:.0f}x unpruned): {'PASS' if ok else 'FAIL'} "
        f"({speedup:.2f}x: unpruned "
        f"{times['continuous']['unpruned_s'] * 1e3:.1f} ms, pruned "
        f"{times['continuous']['pruned_s'] * 1e3:.1f} ms)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(smoke="--smoke" in sys.argv[1:]))
