"""Process-parallel plan execution versus the in-process executor.

Not a paper figure — this measures the reproduction's GIL escape
(``repro/query/pipeline/parallel.py``): the same sharded heatmap plans
executed by a :class:`~repro.query.pipeline.parallel.ProcessPlanExecutor`
at 1, 2 and 4 worker processes, against the serial
:class:`~repro.query.sharded.ShardedQueryEngine`.  Workers read shard
prefixes zero-copy out of shared memory and run the engine's own blocked
gather over a cost-balanced range of the plan's queries, so every
configuration's answer is byte-identical to the serial one — the oracle
check below enforces that on every run, bar or no bar.

**The serial time is the yardstick.**  Every worker count is printed
and recorded (``BENCH_process_parallel.json``) as absolute milliseconds
beside the serial milliseconds and their ratio.  The report used to
quote speed-up against its own 1-worker time, which hid that the whole
process path was several times *slower* than not using it; the 1-worker
time is now held to the serial one (``ACCEPT_ONE_WORKER``: what one
pipe round trip and one pickled answer may cost).

Run standalone for the headline numbers on the 1-day Lausanne fixture::

    PYTHONPATH=src python benchmarks/bench_process_parallel.py

which checks the acceptance bar: byte identity, crash recovery, 1-worker
time at most 1.5x serial, merge replies of at most 17 bytes a query (+
1 KB a chunk), and — only where ``os.cpu_count() >= 4``, since it needs
hardware that can run 4 workers at once — 4-process throughput at least
2x the 1-process throughput.  ``--smoke`` shrinks the workload for CI
and enforces identity, crash recovery and the reply size only — a loaded
CI box is not a benchmark rig.

A ``model-cover`` plan is not measured here: the process path answers
it in the parent, with the engine's own lanes.  Workers cache nothing.

The report closes with a crash-recovery demonstration: every worker is
killed with SIGKILL mid-session and the next query must still come back
byte-identical (in-process fallback), with the pool healing after.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

import pytest

from repro.eval.timing import time_callable
from repro.query.base import QueryBatch
from repro.query.pipeline.parallel import ProcessPlanExecutor
from repro.query.sharded import ShardedQueryEngine

try:  # pytest / smoke-test import (repo root on sys.path)
    from benchmarks.conftest import day_fixture, sharded_day_engine, write_bench_json
except ImportError:  # standalone: python benchmarks/bench_process_parallel.py
    from conftest import day_fixture, sharded_day_engine, write_bench_json

PROCESS_COUNTS = (1, 2, 4)
N_SHARDS = 4
GRID_NX, GRID_NY = 64, 48
RADIUS_M = 500.0
REPEATS = 3
ACCEPT_SPEEDUP = 2.0
ACCEPT_ONE_WORKER = 1.5  # 1-worker time over serial time
REPLY_BYTES_PER_QUERY = 17
REPLY_BYTES_PER_CHUNK = 1024


def build_engine(dataset, n_shards: int = N_SHARDS) -> ShardedQueryEngine:
    """Sharded engine with a day-long window, as in ``bench_sharded``."""
    return sharded_day_engine(dataset, n_shards, radius_m=RADIUS_M)


def heatmap_plan(engine: ShardedQueryEngine, dataset, nx: int, ny: int):
    t = float(dataset.tuples.t[-1])
    bounds = dataset.covered_bbox()
    probes = QueryBatch.from_grid(
        t, bounds.min_x, bounds.min_y, bounds.width, bounds.height, nx, ny
    )
    return engine.plan(probes, "naive")


def executor_time(executor, plan, repeats: int = REPEATS) -> float:
    """Seconds per full heatmap plan (worker attachments warmed)."""
    executor.execute(plan)  # warm the workers' shared-memory attachments
    return time_callable(lambda: executor.execute(plan), repeats=repeats)


# -- pytest-benchmark entry points -----------------------------------------


@pytest.fixture(scope="module")
def day_dataset():
    return day_fixture()


@pytest.mark.parametrize("processes", PROCESS_COUNTS)
def bench_process_heatmap(benchmark, day_dataset, processes):
    engine = build_engine(day_dataset)
    plan = heatmap_plan(engine, day_dataset, GRID_NX, GRID_NY)
    with ProcessPlanExecutor(engine, processes=processes) as executor:
        executor.execute(plan)
        benchmark.group = f"process heatmap {GRID_NX}x{GRID_NY} r={RADIUS_M:.0f}m"
        benchmark.extra_info["processes"] = processes
        benchmark(lambda: executor.execute(plan))
    engine.close()


# -- standalone report ------------------------------------------------------


def _fallbacks(engine) -> int:
    """Plans the engine's pools ran in process instead, all reasons."""
    return sum(engine.metrics["pool_fallbacks"].as_dict().values())


def _crash_demo(engine, plan, expected) -> bool:
    """SIGKILL every worker, then query: fallback must answer identically
    and the pool must heal back onto the process path."""
    from repro.query.pipeline import parallel

    before = _fallbacks(engine)
    with ProcessPlanExecutor(engine, processes=2) as executor:
        executor.execute(plan)
        for worker in executor._workers:
            if worker is not None:
                os.kill(worker.process.pid, signal.SIGKILL)
                worker.process.join(timeout=10.0)
        # Pin liveness so the dispatcher sends into the dead pipes —
        # the deterministic stand-in for a worker dying mid-request.
        original = parallel._Worker.alive
        parallel._Worker.alive = lambda self: True  # type: ignore[method-assign]
        try:
            survived = executor.execute(plan)
        finally:
            parallel._Worker.alive = original  # type: ignore[method-assign]
        fell_back = _fallbacks(engine) == before + 1
        healed = executor.execute(plan)
        return (
            fell_back
            and _fallbacks(engine) == before + 1
            and survived.values.tobytes() == expected.values.tobytes()
            and healed.values.tobytes() == expected.values.tobytes()
        )


def _reply_bytes(engine, plan) -> tuple:
    """``(pickled bytes of every worker reply, replies)`` for one
    execution of ``plan`` on the largest pool."""
    from repro.query.pipeline import parallel

    sizes = []
    original = parallel._Worker.reply

    def measured(self, timeout_s):
        ok, body = original(self, timeout_s)
        sizes.append(len(pickle.dumps(("ok", self.requests, body))))
        return ok, body

    parallel._Worker.reply = measured  # type: ignore[method-assign]
    try:
        with ProcessPlanExecutor(engine, processes=PROCESS_COUNTS[-1]) as executor:
            executor.execute(plan)
    finally:
        parallel._Worker.reply = original  # type: ignore[method-assign]
    return sum(sizes), len(sizes)


def main(smoke: bool = False) -> int:
    dataset = day_fixture()
    nx, ny = (24, 18) if smoke else (GRID_NX, GRID_NY)
    repeats = 1 if smoke else REPEATS
    print(
        f"1-day Lausanne fixture: {len(dataset.tuples)} tuples, "
        f"{N_SHARDS} shards{' (smoke)' if smoke else ''}"
    )

    engine = build_engine(dataset)
    plan = heatmap_plan(engine, dataset, nx, ny)
    expected = engine.execute(plan)
    serial = time_callable(lambda: engine.execute(plan), repeats=repeats)

    print(f"\nnaive heatmap plan {nx}x{ny}, radius {RADIUS_M:.0f} m, day-long window:")
    print(f"  {'procs':<8} {'time':>10} {'grids/s':>9} {'x serial':>9} {'identical':>10}")
    print(f"  {'serial':<8} {serial * 1e3:>8.1f}ms {1.0 / serial:>9.2f} {1.0:>8.2f}x")
    times = {}
    identical = True
    for n in PROCESS_COUNTS:
        with ProcessPlanExecutor(engine, processes=n) as executor:
            result = executor.execute(plan)
            same = result.values.tobytes() == expected.values.tobytes()
            identical = identical and same and _fallbacks(engine) == 0
            times[n] = executor_time(executor, plan, repeats=repeats)
        print(
            f"  {n:<8} {times[n] * 1e3:>8.1f}ms {1.0 / times[n]:>9.2f}"
            f" {times[n] / serial:>8.2f}x {'OK' if same else 'BROKEN'}"
        )

    reply_bytes, replies = _reply_bytes(engine, plan)
    reply_bound = REPLY_BYTES_PER_QUERY * plan.n_queries + REPLY_BYTES_PER_CHUNK * replies
    print(
        f"  worker replies: {reply_bytes} bytes in {replies} chunk(s) for "
        f"{plan.n_queries} queries (bound {reply_bound})"
    )

    recovered = _crash_demo(engine, plan, expected)
    print(
        f"\nbyte-identity oracle (every process count vs serial): "
        f"{'OK' if identical else 'BROKEN'}"
    )
    print(
        f"crash recovery (kill -9 all workers mid-session): "
        f"{'OK' if recovered else 'BROKEN'}"
    )
    engine.close()

    speedup = times[1] / times[PROCESS_COUNTS[-1]]
    cores = os.cpu_count() or 1
    path = write_bench_json(
        "process_parallel",
        {
            "benchmark": "process_parallel",
            "mode": "smoke" if smoke else "full",
            "workload": {
                "grid": [nx, ny], "radius_m": RADIUS_M, "shards": N_SHARDS,
                "tuples": len(dataset.tuples), "repeats": repeats, "cores": cores,
            },
            "serial_ms": serial * 1e3,
            "process_ms": {str(n): t * 1e3 for n, t in times.items()},
            "process_over_serial": {str(n): t / serial for n, t in times.items()},
            "reply_bytes": reply_bytes,
            "reply_chunks": replies,
            "reply_bytes_bound": reply_bound,
            "byte_identical": identical,
            "crash_recovery": recovered,
        },
    )
    print(f"wrote {path.name}")

    ok = identical and recovered and reply_bytes <= reply_bound
    if smoke:
        print(
            f"\n1 worker {times[1] / serial:.2f}x serial, 4-process speedup "
            f"{speedup:.2f}x (smoke mode: time bars not enforced)"
        )
        return 0 if ok else 1
    ok = ok and times[1] <= ACCEPT_ONE_WORKER * serial
    bars = f"1 worker <= {ACCEPT_ONE_WORKER:.1f}x serial ({times[1] / serial:.2f}x)"
    if cores >= 4:
        ok = ok and speedup >= ACCEPT_SPEEDUP
        bars += f", 4-process >= {ACCEPT_SPEEDUP:.0f}x 1-process ({speedup:.2f}x)"
    else:
        bars += f"; 4-process bar not enforced on {cores} core(s) ({speedup:.2f}x)"
    print(
        f"\nacceptance (byte-identical answers, crash recovery, reply size, "
        f"{bars}): {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(smoke="--smoke" in sys.argv[1:]))
