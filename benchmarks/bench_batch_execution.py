"""Scalar vs batched query execution throughput.

Not a paper figure — this measures the processors' batched path
(``repro/query/README.md``): the heatmap grid as one ``process_batch``
call versus the historical cell-by-cell scalar loop, and a windowed
continuous stream grouped by window (one ``process_batch`` per group)
versus per-tuple processing.  The processors are built directly over
the window slices, so no engine overhead is timed.

Run standalone for the headline numbers on the 1-day Lausanne fixture::

    PYTHONPATH=src python benchmarks/bench_batch_execution.py

which also checks the acceptance bar: the batched 40x30 model-cover
heatmap must be at least 3x faster than the scalar loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adkmn import fit_adkmn
from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset
from repro.data.tuples import QueryTuple
from repro.data.windows import window, windows_for_times
from repro.eval.timing import time_callable
from repro.query.base import PointQueryProcessor, QueryBatch, process_batch
from repro.query.executor import group_queries_by_window, scatter_results
from repro.query.indexed import IndexedProcessor
from repro.query.modelcover import ModelCoverProcessor
from repro.query.naive import NaiveProcessor

H = 240
RADIUS_M = 1000.0
GRID_NX, GRID_NY = 40, 30
N_CONTINUOUS = 240        # sparse: ~10 queries per window
N_CONTINUOUS_DENSE = 4800  # dense: ~200 queries per window
METHODS = ("model-cover", "naive", "kdtree")


def day_fixture():
    """The deterministic 1-day Lausanne dataset (~5.9 K tuples)."""
    return generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0, seed=7))


def make_processor(dataset, method: str, c: int) -> PointQueryProcessor:
    """A ``method`` processor over window ``c`` of the fixture."""
    sub = window(dataset.tuples, c, H)
    if method == "naive":
        return NaiveProcessor(sub, RADIUS_M)
    if method == "model-cover":
        return ModelCoverProcessor(fit_adkmn(sub, window_c=c).cover)
    return IndexedProcessor(sub, kind=method, radius_m=RADIUS_M)


def window_for_time(dataset, t: float) -> int:
    return int(windows_for_times(dataset.tuples.t, (t,), H)[0])


def _grid_probes(dataset, nx=GRID_NX, ny=GRID_NY):
    t = float(dataset.tuples.t[len(dataset.tuples) // 2])
    bounds = dataset.covered_bbox()
    probes = QueryBatch.from_grid(
        t, bounds.min_x, bounds.min_y, bounds.width, bounds.height, nx, ny
    )
    return t, bounds, probes


def _continuous_stream(dataset, n=N_CONTINUOUS):
    """A query stream sweeping several windows (diagonal walk in time)."""
    tuples = dataset.tuples
    span = len(tuples) - 1
    return [
        QueryTuple(
            float(tuples.t[i * span // max(n - 1, 1)]),
            float(tuples.x[i * span // max(n - 1, 1)]) + 50.0,
            float(tuples.y[i * span // max(n - 1, 1)]) - 50.0,
        )
        for i in range(n)
    ]


def scalar_grid(proc, probes) -> int:
    """The historical per-cell loop heatmap_grid used before batching."""
    answered = 0
    for q in probes:
        if proc.process(q).answered:
            answered += 1
    return answered


def heatmap_speedup(dataset, method="model-cover", nx=GRID_NX, ny=GRID_NY, repeats=3):
    """(scalar_s, batched_s) for one full heatmap grid."""
    t, _, probes = _grid_probes(dataset, nx, ny)
    proc = make_processor(dataset, method, window_for_time(dataset, t))
    scalar_s = time_callable(lambda: scalar_grid(proc, probes), repeats=repeats)
    batched_s = time_callable(lambda: process_batch(proc, probes), repeats=repeats)
    return scalar_s, batched_s


def stream_processors(dataset, method, queries):
    """``{window: processor}`` for every window the stream touches."""
    ts = np.array([q.t for q in queries])
    windows = np.unique(windows_for_times(dataset.tuples.t, ts, H))
    return {int(c): make_processor(dataset, method, int(c)) for c in windows}


def scalar_stream(dataset, procs, queries) -> None:
    """Per tuple: find its window, answer it with ``process``."""
    for q in queries:
        procs[window_for_time(dataset, q.t)].process(q)


def batched_stream(dataset, procs, queries):
    """Group by window, one ``process_batch`` per group, stream order."""
    groups = group_queries_by_window(
        queries,
        None,
        windows_for_times=lambda ts: windows_for_times(dataset.tuples.t, ts, H),
    )
    results = [process_batch(procs[g.window_c], g.queries) for g in groups]
    return scatter_results(groups, results, len(queries))


def continuous_speedup(dataset, method="model-cover", n=N_CONTINUOUS, repeats=3):
    """(scalar_s, batched_s) for a multi-window continuous stream."""
    queries = _continuous_stream(dataset, n=n)
    # Build every processor first so both paths measure query work only.
    procs = stream_processors(dataset, method, queries)
    scalar_s = time_callable(
        lambda: scalar_stream(dataset, procs, queries), repeats=repeats
    )
    batched_s = time_callable(
        lambda: batched_stream(dataset, procs, queries), repeats=repeats
    )
    return scalar_s, batched_s


# -- pytest-benchmark entry points -----------------------------------------


@pytest.fixture(scope="module")
def day_dataset():
    return day_fixture()


@pytest.mark.parametrize("path", ("scalar", "batched"))
@pytest.mark.parametrize("method", METHODS)
def bench_heatmap(benchmark, day_dataset, method, path):
    t, _, probes = _grid_probes(day_dataset)
    proc = make_processor(day_dataset, method, window_for_time(day_dataset, t))
    benchmark.group = f"heatmap {GRID_NX}x{GRID_NY} {method}"
    benchmark.extra_info["path"] = path
    if path == "scalar":
        benchmark(lambda: scalar_grid(proc, probes))
    else:
        benchmark(lambda: process_batch(proc, probes))


@pytest.mark.parametrize("path", ("scalar", "batched"))
def bench_continuous(benchmark, day_dataset, path):
    queries = _continuous_stream(day_dataset)
    procs = stream_processors(day_dataset, "model-cover", queries)
    benchmark.group = "continuous model-cover"
    benchmark.extra_info["path"] = path
    if path == "scalar":
        benchmark(lambda: scalar_stream(day_dataset, procs, queries))
    else:
        benchmark(lambda: batched_stream(day_dataset, procs, queries))


# -- standalone report ------------------------------------------------------


def main() -> int:
    dataset = day_fixture()
    print(f"1-day Lausanne fixture: {len(dataset.tuples)} tuples")
    print(f"\nheatmap grid {GRID_NX}x{GRID_NY} (one window):")
    print(f"  {'method':<12} {'scalar':>10} {'batched':>10} {'speedup':>9}")
    ok = True
    for method in METHODS:
        scalar_s, batched_s = heatmap_speedup(dataset, method)
        speedup = scalar_s / batched_s
        print(
            f"  {method:<12} {scalar_s * 1e3:>8.1f}ms {batched_s * 1e3:>8.1f}ms"
            f" {speedup:>8.1f}x"
        )
        if method == "model-cover" and speedup < 3.0:
            ok = False
    print("\ncontinuous model-cover stream across windows:")
    for label, n in (("sparse", N_CONTINUOUS), ("dense", N_CONTINUOUS_DENSE)):
        scalar_s, batched_s = continuous_speedup(dataset, n=n)
        print(
            f"  {label:<6} n={n:<5} {scalar_s * 1e3:>8.1f}ms {batched_s * 1e3:>8.1f}ms"
            f" {scalar_s / batched_s:>8.1f}x"
        )
    verdict = "PASS" if ok else "FAIL"
    print(f"\nacceptance (model-cover heatmap >= 3x): {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
