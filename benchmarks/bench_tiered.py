"""Durable tiered storage under a bounded resident-window budget.

Not a paper figure — this measures the reproduction's segment + WAL tier
(``repro/storage/tiered.py``): a stream ~20x the 1-day Lausanne fixture
is ingested into a :class:`~repro.storage.tiered.TieredShardRouter`
capped at a handful of resident sealed windows, then queried two ways:

* **hot** — a query stream aimed at the most recent window (the open
  tail / freshest seal, always resident), which must cost within 20% of
  an uncapped all-in-memory :class:`~repro.storage.shards.ShardRouter`
  on the same stream: the tier may not tax the common case.  The ratio
  is the median over alternating tiered / all-resident passes
  (:func:`paired_ratio`);
* **cold** — times spread across the whole archive, faulting evicted
  segments back in (reported, not gated — cold reads *should* pay I/O):
  the cold ÷ all-resident ratio, what a cold pass pays over an
  all-resident one per fault-in, and the segment bytes on disk per user
  byte, which is what raw (codec 0) segments trade for a fault-in that
  decodes nothing.

The byte-identity oracle runs on every invocation: hot and cold answers
from the capped tier must equal the all-resident engine's bit for bit,
and the peak resident count must never exceed the configured cap.

A third pass measures **durable ingest** (``wal_sync=True``, every WAL
append fsynced): rows/s, and the atomic writes each seal makes, counted
through ``fsio.replace``.  A seal writes one pack, the manifest and the
WAL checkpoint, so the run fails if any seal costs more than 3.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_tiered.py [--smoke]

``--smoke`` shrinks the query workload and repeats for CI (the ingest
scale stays at 20x — the bounded-memory claim is the point), keeping the
same acceptance gates.  Either mode writes ``BENCH_tiered.json``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from repro.data.tuples import TupleBatch
from repro.eval.timing import time_callable
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.sharded import ShardedQueryEngine
from repro.storage import fsio
from repro.storage.shards import ShardRouter
from repro.storage.tiered import TieredShardRouter

try:  # pytest / smoke-test import (repo root on sys.path)
    from benchmarks.conftest import day_fixture, rng_for, write_bench_json
except ImportError:  # standalone: python benchmarks/bench_tiered.py
    from conftest import day_fixture, rng_for, write_bench_json

REPLICAS = 20  # ingest >= 20x the fixture (the bounded-memory claim)
H = 500
CAP = 8  # resident sealed (shard, window) slices
N_SHARDS = 4
GRID_NX, GRID_NY = 2, 2
RADIUS_M = 500.0
INGEST_BATCH = 2000
N_QUERIES = 200
REPEATS = 3
#: Tiered / all-resident pass pairs the hot ratio is the median of.
HOT_PAIRS = 31
ACCEPT_HOT_RATIO = 1.2  # hot-window latency vs all-resident
MAX_WRITES_PER_SEAL = 3  # the pack, the manifest, the WAL checkpoint


def tiled_stream(dataset, replicas: int) -> TupleBatch:
    """The 1-day stream repeated ``replicas`` times, time-shifted so the
    result is one long time-sorted deployment."""
    base = dataset.tuples
    span = float(base.t[-1] - base.t[0]) + 60.0
    cols = {name: [] for name in ("t", "x", "y", "s")}
    for k in range(replicas):
        cols["t"].append(base.t + k * span)
        cols["x"].append(base.x)
        cols["y"].append(base.y)
        cols["s"].append(base.s)
    return TupleBatch(*(np.concatenate(cols[name]) for name in ("t", "x", "y", "s")))


def build_routers(dataset, data_dir, replicas: int = REPLICAS, cap: int = CAP):
    """The capped tiered router and its all-resident oracle, identically
    fed.  ``wal_sync=False``: this benchmark measures the query-side cost
    of tiering, not fsync throughput (bench data is disposable)."""
    stream = tiled_stream(dataset, replicas)
    grid = RegionGrid(dataset.covered_bbox(), nx=GRID_NX, ny=GRID_NY)
    tiered = TieredShardRouter(
        grid, h=H, data_dir=data_dir, memory_windows=cap, wal_sync=False
    )
    plain = ShardRouter(grid, h=H)
    for start in range(0, len(stream), INGEST_BATCH):
        chunk = stream.slice(start, min(start + INGEST_BATCH, len(stream)))
        tiered.ingest(chunk)
        plain.ingest(chunk)
    return stream, tiered, plain


def durable_ingest(dataset, data_dir, replicas: int = REPLICAS) -> dict:
    """Ingest the tiled stream into an fsyncing tier, counting the atomic
    writes (``fsio.replace`` calls) each ingest's seal makes."""
    stream = tiled_stream(dataset, replicas)
    grid = RegionGrid(dataset.covered_bbox(), nx=GRID_NX, ny=GRID_NY)
    renames = [0]
    real_replace = fsio.replace

    def counting_replace(src, dst) -> None:
        renames[0] += 1
        real_replace(src, dst)

    writes_per_seal = []
    fsio.replace = counting_replace
    try:
        with TieredShardRouter(grid, h=H, data_dir=data_dir, wal_sync=True) as tiered:
            start = time.perf_counter()
            for lo in range(0, len(stream), INGEST_BATCH):
                renames_before = renames[0]
                packs_before = tiered.tier_stats()["packs_written"]
                tiered.ingest(stream.slice(lo, min(lo + INGEST_BATCH, len(stream))))
                seals = tiered.tier_stats()["packs_written"] - packs_before
                if seals:
                    writes_per_seal.append((renames[0] - renames_before) / seals)
            elapsed = time.perf_counter() - start
            stats = tiered.tier_stats()
    finally:
        fsio.replace = real_replace
    return {
        "rows": len(stream),
        "rows_per_s": len(stream) / elapsed,
        "seals": stats["packs_written"],
        "slices": stats["segments_written"],
        "atomic_writes_per_seal_max": max(writes_per_seal),
        "atomic_writes_per_seal_mean": float(np.mean(writes_per_seal)),
    }


def hot_queries(stream: TupleBatch, bounds, n: int, rng) -> QueryBatch:
    """Queries pinned inside the freshest window — the resident hot set."""
    t_hi = float(stream.t[-1])
    t_lo = float(stream.t[-min(H, len(stream))])
    return QueryBatch(
        rng.uniform(t_lo, t_hi, n),
        rng.uniform(bounds.min_x, bounds.max_x, n),
        rng.uniform(bounds.min_y, bounds.max_y, n),
    )


def cold_queries(stream: TupleBatch, bounds, n: int, rng) -> QueryBatch:
    """Times spread over the whole archive — every batch faults segments."""
    return QueryBatch(
        rng.uniform(float(stream.t[0]), float(stream.t[-1]), n),
        rng.uniform(bounds.min_x, bounds.max_x, n),
        rng.uniform(bounds.min_y, bounds.max_y, n),
    )


def paired_ratio(first, second, pairs: int):
    """``(median ratio, median first s, median second s)`` over
    ``pairs`` back-to-back passes of each, the order alternating from
    pair to pair: host drift and cache warmth then fall on both sides
    of every ratio alike, which two separate best-of-N timings of a
    ~1 ms workload do not give (their ratio moved by 0.6 between runs
    of one tree)."""
    clock = time.perf_counter
    ratios, times = [], ([], [])
    for k in range(pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        took = [0.0, 0.0]
        for side in order:
            start = clock()
            (first, second)[side]()
            took[side] = clock() - start
        ratios.append(took[0] / took[1])
        times[0].append(took[0])
        times[1].append(took[1])
    return statistics.median(ratios), *map(statistics.median, times)


def identical(a, b) -> bool:
    return (
        a.values.tobytes() == b.values.tobytes()
        and np.array_equal(a.answered, b.answered)
        and np.array_equal(a.support, b.support)
    )


def bench_tiered_hot_window(benchmark, dataset, replicas: int = REPLICAS):
    """pytest-benchmark entry: hot-window queries against the capped tier."""
    data_dir = tempfile.mkdtemp(prefix="bench-tiered-")
    try:
        stream, tiered, plain = build_routers(dataset, data_dir, replicas)
        with tiered:
            engine = ShardedQueryEngine(tiered, radius_m=RADIUS_M)
            oracle = ShardedQueryEngine(plain, radius_m=RADIUS_M)
            try:
                rng = rng_for("bench_tiered_hot")
                queries = hot_queries(stream, plain.grid.bounds, 50, rng)
                got = benchmark(lambda: engine.continuous_query_batch(queries))
                assert identical(got, oracle.continuous_query_batch(queries))
                assert tiered.tier_stats()["peak_resident"] <= CAP
            finally:
                engine.close()
                oracle.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def main(smoke: bool = False) -> int:
    n_queries = 60 if smoke else N_QUERIES
    # The hot gate is a ratio of two ~1 ms workloads: it is the median of
    # HOT_PAIRS alternating pairs (paired_ratio), in smoke mode too.  The
    # cold pass is reported, not gated: best of REPEATS.
    repeats = REPEATS
    dataset = day_fixture()
    data_dir = tempfile.mkdtemp(prefix="bench-tiered-")
    try:
        with time_section("ingest"):
            stream, tiered, plain = build_routers(dataset, data_dir)
        stats = tiered.tier_stats()
        print(
            f"{REPLICAS}x 1-day Lausanne fixture: {len(stream)} tuples, "
            f"{N_SHARDS} shards, h={H}, cap={CAP} resident windows"
            f"{' (smoke)' if smoke else ''}"
        )
        print(
            f"  sealed {stats['sealed_windows']} windows "
            f"({stats['segments_written']} segments), peak resident "
            f"{stats['peak_resident']}, evictions {stats['evictions']}"
        )
        cap_ok = stats["peak_resident"] <= CAP

        bounds = plain.grid.bounds
        engine = ShardedQueryEngine(tiered, radius_m=RADIUS_M)
        oracle = ShardedQueryEngine(plain, radius_m=RADIUS_M)
        try:
            rng = rng_for("bench_tiered")
            hot = hot_queries(stream, bounds, n_queries, rng)
            cold = cold_queries(stream, bounds, n_queries, rng)

            # Byte-identity oracle first (also warms both paths).
            hot_same = identical(
                engine.continuous_query_batch(hot),
                oracle.continuous_query_batch(hot),
            )
            cold_same = identical(
                engine.continuous_query_batch(cold),
                oracle.continuous_query_batch(cold),
            )
            cap_ok = cap_ok and tiered.tier_stats()["peak_resident"] <= CAP

            hot_ratio, t_hot_tier, t_hot_all = paired_ratio(
                lambda: engine.continuous_query_batch(hot),
                lambda: oracle.continuous_query_batch(hot),
                HOT_PAIRS,
            )
            faults_before = tiered.faults
            t_cold_tier = time_callable(
                lambda: engine.continuous_query_batch(cold), repeats=repeats
            )
            faults_per_pass = (tiered.faults - faults_before) / repeats
            t_cold_all = time_callable(
                lambda: oracle.continuous_query_batch(cold), repeats=repeats
            )
        finally:
            engine.close()
            oracle.close()
            tiered.close()

        with time_section("durable ingest"):
            durable = durable_ingest(dataset, os.path.join(data_dir, "durable"))
        writes_ok = durable["atomic_writes_per_seal_max"] <= MAX_WRITES_PER_SEAL

        cold_ratio = t_cold_tier / t_cold_all
        fault_in_us = (t_cold_tier - t_cold_all) * 1e6 / max(faults_per_pass, 1.0)
        stats = tiered.tier_stats()
        segment_bytes = sum(
            entry.stat().st_size
            for entry in os.scandir(os.path.join(data_dir, "segments"))
        )
        # A user row is four float64 columns plus its int64 global id.
        disk_ratio = segment_bytes / (stats["sealed_windows"] * H * 5 * 8)
        print(f"\n  {'workload':<10} {'tiered':>10} {'all-res':>10} {'ratio':>8}")
        print(
            f"  {'hot':<10} {t_hot_tier * 1e3:>8.1f}ms {t_hot_all * 1e3:>8.1f}ms "
            f"{hot_ratio:>7.2f}x  (medians of {HOT_PAIRS} alternating pairs)"
        )
        print(
            f"  {'cold':<10} {t_cold_tier * 1e3:>8.1f}ms {t_cold_all * 1e3:>8.1f}ms "
            f"{cold_ratio:>7.2f}x"
        )
        print(
            f"  cold pass: {faults_per_pass:.0f} fault-ins at "
            f"{fault_in_us:.0f} us each over all-resident; segments hold "
            f"{disk_ratio:.3f} bytes per user byte"
        )
        print(
            f"\nbyte-identity oracle (capped tier == all-resident): "
            f"{'OK' if hot_same and cold_same else 'BROKEN'}"
        )
        print(
            f"resident cap held (peak {stats['peak_resident']} <= {CAP}): "
            f"{'OK' if cap_ok else 'BROKEN'}; "
            f"{stats['faults']} faults, {stats['evictions']} evictions"
        )
        print(
            f"durable ingest (wal_sync=True): {durable['rows_per_s']:,.0f} rows/s, "
            f"{durable['seals']} seals of {durable['slices']} slices, at most "
            f"{durable['atomic_writes_per_seal_max']:.0f} atomic writes per seal "
            f"(<= {MAX_WRITES_PER_SEAL}): {'OK' if writes_ok else 'BROKEN'}"
        )

        path = write_bench_json(
            "tiered",
            {
                "benchmark": "tiered",
                "mode": "smoke" if smoke else "full",
                "workload": {
                    "tuples": len(stream),
                    "replicas": REPLICAS,
                    "shards": N_SHARDS,
                    "h": H,
                    "memory_windows": CAP,
                    "n_queries": n_queries,
                    "repeats": repeats,
                    "hot_pairs": HOT_PAIRS,
                },
                "tier": stats,
                "results": {
                    "hot_tiered_s": t_hot_tier,
                    "hot_all_resident_s": t_hot_all,
                    "hot_ratio": hot_ratio,
                    "cold_tiered_s": t_cold_tier,
                    "cold_all_resident_s": t_cold_all,
                    "cold_ratio": cold_ratio,
                    "cold_faults_per_pass": faults_per_pass,
                    "fault_in_us": fault_in_us,
                    "segment_bytes_per_user_byte": disk_ratio,
                    "byte_identical": hot_same and cold_same,
                    "cap_held": cap_ok,
                    "durable_ingest": durable,
                },
                "accept_hot_ratio": ACCEPT_HOT_RATIO,
                "max_atomic_writes_per_seal": MAX_WRITES_PER_SEAL,
            },
        )
        print(f"wrote {path.name}")

        ok = (
            hot_same
            and cold_same
            and cap_ok
            and writes_ok
            and hot_ratio <= ACCEPT_HOT_RATIO
        )
        print(
            f"\nacceptance (byte-identical, cap held, <= {MAX_WRITES_PER_SEAL} "
            f"atomic writes per seal, hot latency <= "
            f"{ACCEPT_HOT_RATIO:.1f}x all-resident): "
            f"{'PASS' if ok else 'FAIL'} ({hot_ratio:.2f}x)"
        )
        return 0 if ok else 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


class time_section:
    """Tiny context printing a section's wall time (ingest progress)."""

    def __init__(self, label: str) -> None:
        self.label = label

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        print(f"[{self.label}: {time.perf_counter() - self._start:.1f}s]")


if __name__ == "__main__":
    raise SystemExit(main(smoke="--smoke" in sys.argv[1:]))
