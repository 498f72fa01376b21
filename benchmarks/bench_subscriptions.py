"""Standing-subscription maintenance versus naive per-poll re-execution.

Not a paper figure — this measures the reproduction's subscription
registry (``repro/query/subscriptions.py``): 64 standing continuous
queries registered over long-sealed early windows of a sharded store
while ingest appends at the tail.  A naive server re-executes every
registered route on every poll — O(subscriptions x route length) per
epoch regardless of what changed.  The registry's epoch-delta pass
checks per-window content marks over the registered keys instead, so a
tail ingest that touches none of the subscribed windows costs
O(registered keys) comparisons and zero query executions.

The byte-identity oracle runs on every invocation: after all ingest,
every subscription's maintained answer must equal from-scratch
re-execution of its route — maintenance may only skip work it can prove
irrelevant, never change an answer.

Run standalone for the headline numbers on the 1-day Lausanne fixture::

    PYTHONPATH=src python benchmarks/bench_subscriptions.py

which also checks the acceptance bar: maintaining 64 quiet
subscriptions across tail ingests must beat naive re-execution by >= 5x
(``--smoke`` shrinks the ingest schedule and lowers the bar to 2x for
CI boxes), and the maintenance pass at 64 subscriptions must cost about
the same as at 8 — the cost scales with dirty work, not population.
Either mode writes the machine-readable ``BENCH_subscriptions.json``
perf-trajectory artifact.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro.geo.region import RegionGrid
from repro.query.sharded import ShardedQueryEngine
from repro.query.subscriptions import registry_for
from repro.storage.shards import ShardRouter

try:  # pytest / smoke-test import (repo root on sys.path)
    from benchmarks.conftest import day_fixture, rng_for, write_bench_json
except ImportError:  # standalone: python benchmarks/bench_subscriptions.py
    from conftest import day_fixture, rng_for, write_bench_json

N_SHARDS = 4
H = 240
RADIUS_M = 500.0
N_SUBS = 64
N_SUBS_SMALL = 8
COUNT = 12  # query tuples per standing route
CUT_FRAC = 0.7
STEPS = 6
STEPS_SMOKE = 2
METHOD = "naive"
ACCEPT_SPEEDUP = 5.0
ACCEPT_SPEEDUP_SMOKE = 2.0
ACCEPT_COUNT_RATIO = 4.0  # 64 subs may not cost 4x what 8 do (naive: 8x)


def partial_engine(dataset, frac: float = CUT_FRAC):
    """A sharded engine over the first ``frac`` of the day — the rest of
    the stream is the live tail the benchmark ingests."""
    tuples = dataset.tuples
    grid = RegionGrid.for_shard_count(dataset.covered_bbox(), N_SHARDS)
    router = ShardRouter(grid, h=H)
    router.ingest(tuples.slice(0, int(frac * len(tuples))))
    return ShardedQueryEngine(router, radius_m=RADIUS_M)


def register_early_subs(registry, tuples, n: int, label: str):
    """``n`` standing routes anchored on early tuples: their windows are
    sealed long before the tail, so tail ingest never dirties them."""
    rng = rng_for(label)
    cut = int(CUT_FRAC * len(tuples))
    subs = []
    for _ in range(n):
        i = int(rng.integers(0, cut // 2))
        x, y = float(tuples.x[i]), float(tuples.y[i])
        subs.append(
            registry.subscribe(
                [(x - 200.0, y - 200.0), (x + 200.0, y + 200.0)],
                float(tuples.t[i]),
                interval_s=30.0,
                count=COUNT,
                method=METHOD,
            )
        )
    return subs


def tail_batches(tuples, steps: int):
    cut = int(CUT_FRAC * len(tuples))
    step = max(1, (len(tuples) - cut + steps - 1) // steps)
    return [
        tuples.slice(lo, min(lo + step, len(tuples)))
        for lo in range(cut, len(tuples), step)
    ]


def timed_maintenance_run(dataset, n_subs: int, steps: int):
    """Ingest the tail in ``steps`` batches; after each, time one
    maintenance pass and one naive all-subscriptions re-execution."""
    tuples = dataset.tuples
    engine = partial_engine(dataset)
    registry = registry_for(engine)
    subs = register_early_subs(
        registry, tuples, n_subs, f"bench_subscriptions:{n_subs}"
    )
    maintain_s, naive_s = [], []
    for batch in tail_batches(tuples, steps):
        engine.router.ingest(batch)
        t0 = time.perf_counter()
        updates = registry.maintain()
        maintain_s.append(time.perf_counter() - t0)
        assert updates == [], "sealed-window subscriptions must stay quiet"
        t0 = time.perf_counter()
        for sub in subs:
            registry.reference_answers(sub.batch, sub.method)
        naive_s.append(time.perf_counter() - t0)
    oracle_ok = True
    for sub in subs:
        ref_v, ref_s = registry.reference_answers(sub.batch, sub.method)
        v, s = sub.answer()
        oracle_ok = oracle_ok and bool(
            np.array_equal(v, ref_v, equal_nan=True)
            and np.array_equal(s, ref_s)
        )
    stats = registry.stats
    return {
        "n_subs": n_subs,
        "maintain_s": maintain_s,
        "naive_s": naive_s,
        "maintain_total_s": float(sum(maintain_s)),
        "naive_total_s": float(sum(naive_s)),
        "queries_reexecuted": stats.queries_reexecuted,
        "keys_checked": stats.keys_checked,
        "byte_identical": oracle_ok,
    }


# -- pytest-benchmark entry points -----------------------------------------


@pytest.fixture(scope="module")
def day_dataset():
    return day_fixture()


@pytest.mark.parametrize("n_subs", (N_SUBS_SMALL, N_SUBS))
def bench_quiet_epoch_maintain(benchmark, day_dataset, n_subs):
    """Steady-state maintenance pass cost with every subscription clean —
    the per-poll overhead a quiet epoch pays, at two population sizes."""
    engine = partial_engine(day_dataset)
    registry = registry_for(engine)
    register_early_subs(
        registry, day_dataset.tuples, n_subs, f"bench_quiet:{n_subs}"
    )
    engine.router.ingest(tail_batches(day_dataset.tuples, 1)[0])
    registry.maintain()  # absorb the ingest; the timed passes are quiet
    benchmark.group = f"quiet-epoch maintenance, {N_SHARDS} shards"
    benchmark.extra_info["n_subs"] = n_subs
    benchmark(registry.maintain)


# -- standalone report ------------------------------------------------------


def main(smoke: bool = False) -> int:
    dataset = day_fixture()
    steps = STEPS_SMOKE if smoke else STEPS
    bar = ACCEPT_SPEEDUP_SMOKE if smoke else ACCEPT_SPEEDUP
    print(
        f"1-day Lausanne fixture: {len(dataset.tuples)} tuples, "
        f"{N_SHARDS} shards, h={H}, {int(CUT_FRAC * 100)}% pre-loaded, "
        f"tail in {steps} ingest step(s){' (smoke)' if smoke else ''}"
    )

    big = timed_maintenance_run(dataset, N_SUBS, steps)
    small = timed_maintenance_run(dataset, N_SUBS_SMALL, steps)
    speedup = big["naive_total_s"] / max(big["maintain_total_s"], 1e-9)
    ratio = big["maintain_total_s"] / max(small["maintain_total_s"], 1e-9)

    print(
        f"\n{'subs':>6} {'maintain':>10} {'naive':>10} {'speedup':>9} "
        f"{'re-executed':>12} {'identical':>10}"
    )
    for run in (small, big):
        sp = run["naive_total_s"] / max(run["maintain_total_s"], 1e-9)
        print(
            f"{run['n_subs']:>6} {run['maintain_total_s'] * 1e3:>8.1f}ms "
            f"{run['naive_total_s'] * 1e3:>8.1f}ms {sp:>8.1f}x "
            f"{run['queries_reexecuted']:>12} "
            f"{'OK' if run['byte_identical'] else 'BROKEN':>10}"
        )
    print(
        f"\nmaintenance cost, 64 vs 8 subscriptions: {ratio:.2f}x "
        f"(naive scaling would be "
        f"{N_SUBS / N_SUBS_SMALL:.0f}x; bar < {ACCEPT_COUNT_RATIO:.0f}x)"
    )

    oracle_ok = big["byte_identical"] and small["byte_identical"]
    path = write_bench_json(
        "subscriptions",
        {
            "benchmark": "subscriptions",
            "mode": "smoke" if smoke else "full",
            "workload": {
                "shards": N_SHARDS,
                "h": H,
                "radius_m": RADIUS_M,
                "method": METHOD,
                "count_per_route": COUNT,
                "preloaded_fraction": CUT_FRAC,
                "ingest_steps": steps,
                "tuples": len(dataset.tuples),
            },
            "results": {"64_subs": big, "8_subs": small},
            "quiet_speedup_vs_naive": speedup,
            "count_scaling_ratio_64_vs_8": ratio,
            "accept_speedup": bar,
            "accept_count_ratio": ACCEPT_COUNT_RATIO,
        },
    )
    print(f"wrote {path.name}")

    ok = (
        oracle_ok
        and big["queries_reexecuted"] == 0
        and speedup >= bar
        and ratio < ACCEPT_COUNT_RATIO
    )
    print(
        f"\nacceptance (byte-identical answers, zero re-executions on "
        f"quiet epochs, maintenance >= {bar:.0f}x naive at {N_SUBS} subs, "
        f"population-independent cost): {'PASS' if ok else 'FAIL'} "
        f"({speedup:.1f}x, {ratio:.2f}x)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(smoke="--smoke" in sys.argv[1:]))
