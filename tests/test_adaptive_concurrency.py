"""Readers pinned across a rebalance epoch, against the serial oracle.

The adaptive layer's core isolation claim: a plan pins its binding at
build time, so executing it — from pool threads racing a free-running
writer AND a split/merge re-cut, or through the process-parallel
executor's stale-layout fallback — returns bytes identical to a serial
replay on a quiescent router holding exactly the rows the plan saw.
Everything is seeded; a failure replays from the seed alone.
"""

import threading

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.pipeline.parallel import ProcessPlanExecutor
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter

BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
H = 96
N_TUPLES = 900
HEAD = 600  # rows ingested before the pinned plan is built
N_READERS = 4
READS_PER_READER = 6


def seeded_stream(seed: int) -> TupleBatch:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-500.0, 6500.0, N_TUPLES)
    y = rng.uniform(-500.0, 4500.0, N_TUPLES)
    hot = rng.random(N_TUPLES) < 0.5  # downtown skew: cell 0 runs hot
    x[hot] = rng.uniform(0.0, 1500.0, int(hot.sum()))
    y[hot] = rng.uniform(0.0, 1500.0, int(hot.sum()))
    return TupleBatch(
        np.cumsum(rng.uniform(1.0, 4.0, N_TUPLES)),
        x, y, rng.uniform(350.0, 600.0, N_TUPLES),
    )


def seeded_queries(stream: TupleBatch, seed: int, n: int = 64) -> QueryBatch:
    rng = np.random.default_rng(seed + 1)
    picks = rng.integers(0, HEAD, n)  # times inside the pinned head
    return QueryBatch(
        stream.t[picks],
        stream.x[picks] + rng.normal(0.0, 250.0, n),
        stream.y[picks] + rng.normal(0.0, 250.0, n),
    )


def make_engine(stream_prefix: TupleBatch) -> ShardedQueryEngine:
    router = ShardRouter(RegionGrid(BOUNDS, nx=3, ny=2), h=H)
    router.ingest(stream_prefix)
    return ShardedQueryEngine(router, radius_m=400.0)


def fingerprint(result) -> bytes:
    return (
        result.values.tobytes()
        + result.support.tobytes()
        + result.answered.tobytes()
    )


@pytest.mark.parametrize("seed", [0, 7])
def test_pinned_readers_match_serial_replay_across_rebalance(seed):
    stream = seeded_stream(seed)
    queries = seeded_queries(stream, seed)

    # Serial replay oracle: a quiescent engine over exactly the head.
    with make_engine(stream.slice(0, HEAD)) as serial:
        expected = fingerprint(serial.execute(serial.plan(queries, "naive")))

    with make_engine(stream.slice(0, HEAD)) as eng:
        plan = eng.plan(queries, "naive")  # pinned at the quiescent head
        hot = int(np.argmax(eng.router.shard_counts()))
        fingerprints = []
        fp_lock = threading.Lock()
        failures = []

        def writer():
            try:
                step = 30
                for start in range(HEAD, N_TUPLES, step):
                    eng.router.ingest(
                        stream.slice(start, min(start + step, N_TUPLES))
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def rebalancer():
            try:
                eng.router.split_shard(hot)
                eng.router.merge_cell(eng.router.grid.cell_of_shard(hot))
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def reader():
            try:
                for _ in range(READS_PER_READER):
                    fp = fingerprint(eng.execute(plan))
                    with fp_lock:
                        fingerprints.append(fp)
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=writer), threading.Thread(target=rebalancer)]
        threads += [threading.Thread(target=reader) for _ in range(N_READERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not failures, failures
        assert len(fingerprints) == N_READERS * READS_PER_READER
        assert all(fp == expected for fp in fingerprints), (
            "a pinned plan diverged from the serial replay during a rebalance"
        )
        # The re-cut really happened while readers were running.
        assert eng.router.layout_epoch == 2


@pytest.mark.parametrize("seed", [3])
def test_process_path_stale_plan_falls_back_byte_identically(seed):
    stream = seeded_stream(seed)
    queries = seeded_queries(stream, seed)

    with make_engine(stream.slice(0, HEAD)) as serial:
        expected = fingerprint(serial.execute(serial.plan(queries, "naive")))

    with make_engine(stream.slice(0, HEAD)) as eng:
        plan = eng.plan(queries, "naive")
        hot = int(np.argmax(eng.router.shard_counts()))
        with ProcessPlanExecutor(eng, processes=2) as executor:
            fallbacks = eng.metrics["pool_fallbacks"]
            # Same layout: worker processes serve the plan, no fallback.
            assert fingerprint(executor.execute(plan)) == expected
            assert not fallbacks.as_dict()

            eng.router.split_shard(hot)
            eng.router.ingest(stream.slice(HEAD, N_TUPLES))

            # The pinned plan now references a retired layout: the
            # executor must refuse to serialize it to workers (their
            # shard exports hold the new layout's rows) and fall back to
            # the in-process path — bytes still identical.
            assert fingerprint(executor.execute(plan)) == expected
            assert set(fallbacks.as_dict()) == {"plan pinned an older shard layout"}

            # A fresh plan at the new layout ships to workers again and
            # agrees with the thread path.
            before = fallbacks.as_dict()
            fresh = eng.plan(queries, "naive")
            thread_path = fingerprint(eng.execute(fresh))
            assert fingerprint(executor.execute(fresh)) == thread_path
            assert fallbacks.as_dict() == before
