"""Tests for repro.query.pipeline.parallel — process-parallel execution.

The contract under test is the tentpole guarantee: every answer produced
on the process pool is byte-identical to the serial ``PlanExecutor``
path — at any worker count, from any number of threads — and any worker
failure (including ``kill -9`` mid-request) degrades to a correct
in-process answer rather than an error.  A ``model-cover`` plan is
answered in the parent by the engine's own lanes, never on a worker.
The pool is the engine's: ``ShardedQueryEngine(..., processes=N)`` runs
its request modes' exact plans on it, keeps subscription maintenance
off it, and stops it on ``close``; an engine without one never imports
this module.  The module leaves nothing behind: its pools close every
descriptor, thread and shared-memory block they opened, killed workers
included — and a ``cli serve --processes`` server killed with SIGKILL
leaves no block and no worker behind it either.
"""

import http.client
import importlib.util
import json
import logging
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.indexed import available_index_kinds
from repro.query.pipeline import parallel
from repro.query.pipeline.parallel import ProcessPlanExecutor
from repro.query.sharded import ShardedQueryEngine
from repro.query.subscriptions import registry_for
from repro.storage.shards import ShardRouter
from repro.storage.shm import ShardExport

from leaks import assert_released, open_resources

# Guard against a hung worker pipe wedging the suite — but only where the
# pytest-timeout plugin is actually installed (CI installs it; the mark
# would be an unknown no-op elsewhere).
pytestmark = (
    [pytest.mark.timeout(300)]
    if importlib.util.find_spec("pytest_timeout")
    else []
)

H = 500


@pytest.fixture(scope="module", autouse=True)
def module_leak_check():
    """Open descriptors, running threads and the shared-memory export
    blocks this module created are back at baseline once its pools —
    the ``params=[1, 2, 3]`` engine's and every test's own, the
    worker-kill cases included — are closed.  The resource tracker's
    pipe lives for the session, so it is started before counting;
    nothing is checked where ``/proc`` is absent.  A selection of tests
    (``-k``) in which no pool dispatched a plan makes no block, and that
    is no sign the recording broke."""
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    created = []
    dispatched = []
    export = ShardExport.__init__
    dispatch = ProcessPlanExecutor._dispatch

    def recording(self, *args, **kwargs):
        export(self, *args, **kwargs)
        created.append(self.name)

    def counting(self, plan, requests):
        replies = dispatch(self, plan, requests)
        dispatched.extend(requests)
        return replies

    patch = pytest.MonkeyPatch()
    patch.setattr(ShardExport, "__init__", recording)
    patch.setattr(ProcessPlanExecutor, "_dispatch", counting)
    before = open_resources()
    yield
    patch.undo()
    assert_released(before)
    if before is not None:
        assert created or not dispatched, (
            "a pool dispatched plans but made no export block: the check saw nothing"
        )
        left = [name for name in created if os.path.exists(f"/dev/shm/{name}")]
        assert not left, f"export blocks not unlinked: {left}"


def _router(dataset, shards=4):
    router = ShardRouter(
        RegionGrid.for_shard_count(dataset.covered_bbox(), shards), h=H
    )
    router.ingest(dataset.tuples)
    return router


@pytest.fixture(scope="module")
def sharded(small_dataset):
    engine = ShardedQueryEngine(_router(small_dataset))
    yield engine
    engine.close()


@pytest.fixture(scope="module", params=[1, 2, 3])
def pooled(small_dataset, request):
    """The module's one pooled engine per worker count, shared by the
    tests that leave its pool as they found it; ``pooled.pool`` is its
    executor."""
    engine = ShardedQueryEngine(_router(small_dataset), processes=request.param)
    yield engine
    engine.close()


def _heatmap(dataset, nx, ny):
    t = float(dataset.tuples.t[len(dataset.tuples) // 2])
    bounds = dataset.covered_bbox()
    return QueryBatch.from_grid(
        t, bounds.min_x, bounds.min_y, bounds.width, bounds.height, nx, ny
    )


@pytest.fixture(scope="module")
def probes(small_dataset):
    return _heatmap(small_dataset, 12, 9)


def _assert_identical(serial, parallel):
    assert np.array_equal(serial.values, parallel.values, equal_nan=True)
    assert np.array_equal(serial.support, parallel.support)
    assert np.array_equal(serial.answered, parallel.answered)
    assert serial.values.tobytes() == parallel.values.tobytes()


def _no_dispatch(*args):
    raise AssertionError("a plan was sent to a worker")


def _stream(dataset, n=60):
    tuples = dataset.tuples
    picks = np.linspace(0, len(tuples) - 1, n).astype(int)
    return QueryBatch(tuples.t[picks], tuples.x[picks] + 40.0, tuples.y[picks] - 40.0)


class TestByteIdentity:
    """The pool against the same engine's in-process ``execute``."""

    def test_merge_shaped_naive_plan(self, pooled, probes):
        plan = pooled.plan(probes, "naive")
        _assert_identical(pooled.execute(plan), pooled.pool.execute(plan))
        assert not pooled.metrics["pool_fallbacks"].as_dict()

    def test_model_cover_plan_is_answered_in_the_parent(
        self, pooled, probes, monkeypatch
    ):
        plan = pooled.plan(probes, "model-cover")
        expected = pooled.execute(plan)
        monkeypatch.setattr(pooled.pool, "_dispatch", _no_dispatch)
        fallbacks = pooled.metrics["pool_fallbacks"].as_dict()
        _assert_identical(expected, pooled.pool.execute(plan))
        assert pooled.metrics["pool_fallbacks"].as_dict() == fallbacks  # not a fallback

    def test_continuous_stream(self, pooled, small_dataset):
        plan = pooled.plan(_stream(small_dataset), "naive")
        _assert_identical(pooled.execute(plan), pooled.pool.execute(plan))

    def test_repeated_execution_is_stable(self, pooled, probes):
        plan = pooled.plan(probes, "naive")
        first = pooled.pool.execute(plan)
        second = pooled.pool.execute(plan)
        assert first.values.tobytes() == second.values.tobytes()

    def test_every_plan_above_ran_on_the_workers(self, pooled):
        assert not pooled.metrics["pool_fallbacks"].as_dict()


class TestChunks:
    def test_merge_replies_are_a_few_bytes_a_query(
        self, sharded, small_dataset, monkeypatch
    ):
        # Hit triples were 24 bytes a *hit* (19.6 MB for the benchmark's
        # heatmap); a sub-plan's answer is 17 bytes a query.
        sizes = []
        reply = parallel._Worker.reply

        def measured(self, timeout_s):
            ok, body = reply(self, timeout_s)
            sizes.append(len(pickle.dumps(("ok", self.requests, body))))
            return ok, body

        monkeypatch.setattr(parallel._Worker, "reply", measured)
        plan = sharded.plan(_heatmap(small_dataset, 40, 30), "naive")
        with ProcessPlanExecutor(sharded, processes=3) as executor:
            chunks = executor._chunks(plan)
            _assert_identical(sharded.execute(plan), executor.execute(plan))
            assert not sharded.metrics["pool_fallbacks"].as_dict()
        assert len(chunks) == len(sizes) == 3
        assert sum(sizes) <= 17 * plan.n_queries + 1024 * len(chunks)

    def test_chunks_are_contiguous_cost_balanced_and_a_function_of_the_plan(
        self, sharded, small_dataset
    ):
        plan = sharded.plan(_heatmap(small_dataset, 40, 30), "naive")
        cost = np.zeros(plan.n_queries)
        for op in plan.ops:
            cost[op.positions] += op.context.n_rows
        with ProcessPlanExecutor(sharded, processes=3) as executor:
            chunks = executor._chunks(plan)
            assert chunks == executor._chunks(plan)
        home = plan.ops[0].context.shard
        assert [w for w, _, _ in chunks] == [(home + i) % 3 for i in range(3)]
        assert [lo for _, lo, _ in chunks] == [0] + [hi for _, _, hi in chunks[:-1]]
        assert chunks[-1][2] == plan.n_queries
        shares = [cost[lo:hi].sum() / cost.sum() for _, lo, hi in chunks]
        assert max(shares) - min(shares) < 0.05

    def test_a_plan_under_one_block_stays_on_one_worker(self, sharded, small_dataset):
        t = float(small_dataset.tuples.t[1000])
        point = QueryBatch(np.array([t]), np.array([2000.0]), np.array([1500.0]))
        stream = QueryBatch(np.full(20, t), np.linspace(500, 4000, 20), np.full(20, 1500.0))
        with ProcessPlanExecutor(sharded, processes=3) as executor:
            for queries in (point, stream):
                plan = sharded.plan(queries, "naive")
                assert len(executor._chunks(plan)) == 1
                _assert_identical(sharded.execute(plan), executor.execute(plan))
            assert sum(worker is not None for worker in executor._workers) == 1
            assert not sharded.metrics["pool_fallbacks"].as_dict()


class TestThreads:
    def test_four_threads_share_one_executor(self, sharded, small_dataset):
        """The async server runs plans from its thread pool: two
        dispatches used to interleave frames on one pipe."""
        tuples = small_dataset.tuples
        picks = np.linspace(0, len(tuples) - 1, 40).astype(int)
        batches = [
            (_heatmap(small_dataset, 12, 9), "naive"),
            (_heatmap(small_dataset, 24, 18), "naive"),
            (_heatmap(small_dataset, 8, 6), "naive"),
            (_heatmap(small_dataset, 12, 9), "model-cover"),
            (QueryBatch(tuples.t[picks], tuples.x[picks] + 40.0, tuples.y[picks]), "naive"),
        ]
        plans = [sharded.plan(queries, method) for queries, method in batches]
        expected = [sharded.execute(plan) for plan in plans]
        failures = []

        def client(k):
            try:
                for i in range(20):
                    at = (k + i) % len(plans)
                    _assert_identical(expected[at], executor.execute(plans[at]))
            except BaseException as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ProcessPlanExecutor(sharded, processes=2, timeout_s=60.0) as executor:
                threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not failures, failures
                fallbacks = sharded.metrics["pool_fallbacks"].as_dict()
                assert not fallbacks, fallbacks
        finally:
            sys.setswitchinterval(interval)


class TestIncrementalIngest:
    def test_exports_grow_with_the_stream(self, small_dataset):
        tuples = small_dataset.tuples
        half = len(tuples) // 2
        router = ShardRouter(
            RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4), h=H
        )
        router.ingest(tuples.slice(0, half))
        engine = ShardedQueryEngine(router)
        bounds = small_dataset.covered_bbox()
        with ProcessPlanExecutor(engine, processes=2) as executor:
            t1 = float(tuples.t[half // 2])
            probes1 = QueryBatch.from_grid(
                t1, bounds.min_x, bounds.min_y, bounds.width, bounds.height, 6, 5
            )
            plan1 = engine.plan(probes1, "naive")
            _assert_identical(engine.execute(plan1), executor.execute(plan1))
            names_before = {
                s: export.name
                for s, export in executor.registry._exports.items()
            }
            router.ingest(tuples.slice(half, len(tuples)))
            t2 = float(tuples.t[half + half // 2])
            probes2 = QueryBatch.from_grid(
                t2, bounds.min_x, bounds.min_y, bounds.width, bounds.height, 6, 5
            )
            plan2 = engine.plan(probes2, "naive")
            _assert_identical(engine.execute(plan2), executor.execute(plan2))
            names_after = {
                s: export.name
                for s, export in executor.registry._exports.items()
            }
            # At least one shard needed a larger prefix and re-exported.
            assert any(
                names_after[s] != names_before.get(s) for s in names_after
            )
            assert not engine.metrics["pool_fallbacks"].as_dict()
        engine.close()

    def test_a_worker_maps_one_block_per_shard_however_often_exports_grow(
        self, small_dataset
    ):
        tuples = small_dataset.tuples
        bounds = small_dataset.covered_bbox()
        router = ShardRouter(RegionGrid.for_shard_count(bounds, 2), h=H)
        engine = ShardedQueryEngine(router)
        rounds = 40
        step = len(tuples) // (rounds + 1)
        router.ingest(tuples.slice(0, step))
        names = set()
        with ProcessPlanExecutor(engine, processes=1) as executor:
            for k in range(1, rounds + 1):
                router.ingest(tuples.slice(k * step, (k + 1) * step))
                head = QueryBatch.from_grid(
                    float(tuples.t[(k + 1) * step - 1]),
                    bounds.min_x, bounds.min_y, bounds.width, bounds.height, 4, 3,
                )
                plan = engine.plan(head, "naive")
                _assert_identical(engine.execute(plan), executor.execute(plan))
                names.update(e.name for e in executor.registry._exports.values())
            assert not engine.metrics["pool_fallbacks"].as_dict()
            assert len(names) >= rounds  # the exports really were retired
            with open(f"/proc/{executor._workers[0].process.pid}/maps") as maps:
                blocks = {part for part in maps.read().split() if "emshm_" in part}
            assert len(blocks) <= 2, blocks
            (mapped,) = executor.worker_stats()
            assert len(mapped) <= 2
        engine.close()

    def test_a_sealed_windows_cover_is_fitted_once_across_a_re_export(
        self, small_dataset
    ):
        """Covers are the parent's: a model-cover plan fits in the
        engine's cache, no worker fits one, and a re-export of every
        shard does not make the sealed window's cover fit again."""
        tuples = small_dataset.tuples
        bounds = small_dataset.covered_bbox()
        half = len(tuples) // 2
        router = ShardRouter(RegionGrid.for_shard_count(bounds, 2), h=H)
        router.ingest(tuples.slice(0, half))
        engine = ShardedQueryEngine(router)

        def probes(at):
            return QueryBatch.from_grid(
                float(tuples.t[at]),
                bounds.min_x, bounds.min_y, bounds.width, bounds.height, 6, 5,
            )

        with ProcessPlanExecutor(engine, processes=2) as executor:
            sealed = engine.plan(probes(H + H // 2), "model-cover")  # window 1: sealed
            expected = engine.execute(sealed)
            fitted = engine.cache_stats.misses
            assert fitted > 0
            _assert_identical(expected, executor.execute(sealed))
            naive = engine.plan(probes(H + H // 2), "naive")
            _assert_identical(engine.execute(naive), executor.execute(naive))
            before = {s: e.name for s, e in executor.registry._exports.items()}
            router.ingest(tuples.slice(half, len(tuples)))
            head = engine.plan(probes(len(tuples) - 1), "naive")
            _assert_identical(engine.execute(head), executor.execute(head))
            after = {s: e.name for s, e in executor.registry._exports.items()}
            assert all(after[s] != before[s] for s in before)  # every shard re-exported
            again = engine.plan(probes(H + H // 2), "model-cover")
            _assert_identical(expected, executor.execute(again))
            assert engine.cache_stats.misses == fitted  # served from the cache
            assert not engine.metrics["pool_fallbacks"].as_dict()
        engine.close()


class TestCrashRecovery:
    def test_killed_workers_degrade_to_in_process_answer(
        self, small_dataset, monkeypatch
    ):
        engine = ShardedQueryEngine(_router(small_dataset))
        bounds = small_dataset.covered_bbox()
        t = float(small_dataset.tuples.t[1000])
        probes = QueryBatch.from_grid(
            t, bounds.min_x, bounds.min_y, bounds.width, bounds.height, 6, 5
        )
        with ProcessPlanExecutor(engine, processes=2, timeout_s=60.0) as executor:
            plan = engine.plan(probes, "naive")
            expected = engine.execute(plan)
            _assert_identical(expected, executor.execute(plan))
            # kill -9 every live worker.  The executor notices dead
            # workers before it sends and respawns them — so to model a
            # worker dying *mid-request* (after liveness was checked,
            # before the reply) we pin alive() to True: the dispatcher
            # sends into a dead pipe, the request fails, and the plan
            # must fall back to a correct in-process answer.
            for worker in executor._workers:
                if worker is not None:
                    os.kill(worker.process.pid, signal.SIGKILL)
                    worker.process.join(timeout=10.0)
            with pytest.MonkeyPatch.context() as mid_request:
                mid_request.setattr(parallel._Worker, "alive", lambda self: True)
                survived = executor.execute(engine.plan(probes, "naive"))
            _assert_identical(expected, survived)
            assert sum(engine.metrics["pool_fallbacks"].as_dict().values()) == 1
            # The pool heals: the next request respawns the dead workers
            # and runs on the process path again (no further fallback).
            healed = executor.execute(engine.plan(probes, "naive"))
            _assert_identical(expected, healed)
            assert sum(engine.metrics["pool_fallbacks"].as_dict().values()) == 1
        engine.close()

    def test_killed_pool_respawns_before_next_request(self, small_dataset, caplog):
        # Plain kill -9 between requests: the lazy respawn notices the
        # corpse and the next request never even needs the fallback.
        # The heal is counted and logged, once per slot respawned.
        engine = ShardedQueryEngine(_router(small_dataset))
        bounds = small_dataset.covered_bbox()
        t = float(small_dataset.tuples.t[1000])
        probes = QueryBatch.from_grid(
            t, bounds.min_x, bounds.min_y, bounds.width, bounds.height, 5, 4
        )
        with ProcessPlanExecutor(engine, processes=2, timeout_s=60.0) as executor:
            plan = engine.plan(probes, "naive")
            expected = engine.execute(plan)
            _assert_identical(expected, executor.execute(plan))
            for worker in executor._workers:
                if worker is not None:
                    os.kill(worker.process.pid, signal.SIGKILL)
                    worker.process.join(timeout=10.0)
            time.sleep(0.05)
            dead = list(executor._workers)
            with caplog.at_level(logging.WARNING, logger=parallel.__name__):
                healed = executor.execute(engine.plan(probes, "naive"))
            _assert_identical(expected, healed)
            assert not engine.metrics["pool_fallbacks"].as_dict()
            respawned = [
                i
                for i, (was, now) in enumerate(zip(dead, executor._workers))
                if was is not None and now is not was
            ]
            assert respawned
            served = json.loads(engine.metrics.render())  # what GET /metrics serves
            assert served["pool_respawns"] == {"workers": len(respawned)}
            records = [r for r in caplog.records if r.name == parallel.__name__]
            assert [r.levelno for r in records] == [logging.WARNING] * len(respawned)
            assert [r.getMessage().split()[3] for r in records] == [
                str(i) for i in respawned
            ]
            assert all("exited with code -9" in r.getMessage() for r in records)
        engine.close()

    def test_undecodable_reply_is_a_worker_crash(self, sharded, probes, monkeypatch):
        plan = sharded.plan(probes, "naive")
        expected = sharded.execute(plan)
        reply = parallel._Worker.reply
        garbled = []

        def garble_once(self, timeout_s):
            if not garbled:
                garbled.append(reply(self, timeout_s))
                raise pickle.UnpicklingError("invalid load key, '\\x00'.")
            return reply(self, timeout_s)

        monkeypatch.setattr(parallel._Worker, "reply", garble_once)
        with ProcessPlanExecutor(sharded, processes=1) as executor:
            _assert_identical(expected, executor.execute(plan))
            assert sharded.metrics["pool_fallbacks"].as_dict() == {"worker lost": 1}
            assert executor._workers == [None]  # not trusted again: respawned
            _assert_identical(expected, executor.execute(plan))
            assert sum(sharded.metrics["pool_fallbacks"].as_dict().values()) == 1


class TestEnginePool:
    """``ShardedQueryEngine(..., processes=N)`` owns its pool: the request
    modes' exact plans run on it, maintenance and ``execute`` do not."""

    def test_three_request_shapes(self, pooled, sharded, small_dataset, monkeypatch):
        """Point, heatmap and route answers are the in-process engine's,
        byte for byte, and each was run on the workers."""
        bounds = small_dataset.covered_bbox()
        t = float(small_dataset.tuples.t[2000])
        sent = []
        dispatch = pooled.pool._dispatch

        def counted(plan, requests):
            sent.append(plan.n_queries)
            return dispatch(plan, requests)

        monkeypatch.setattr(pooled.pool, "_dispatch", counted)
        point = pooled.point_query(t, 2000.0, 1500.0)
        expected_point = sharded.point_query(t, 2000.0, 1500.0)
        assert np.float64(point.value).tobytes() == np.float64(expected_point.value).tobytes()
        assert point.support == expected_point.support

        grid = pooled.heatmap_grid(t, bounds, nx=8, ny=6)
        assert grid.tobytes() == sharded.heatmap_grid(t, bounds, nx=8, ny=6).tobytes()

        route = _stream(small_dataset)
        _assert_identical(
            sharded.continuous_query_batch(route), pooled.continuous_query_batch(route)
        )
        assert sent == [1, 8 * 6, len(route)]
        assert not pooled.metrics["pool_fallbacks"].as_dict()

        empty = pooled.continuous_query_batch(QueryBatch(
            np.empty(0), np.empty(0), np.empty(0)
        ))
        assert len(empty) == 0

    @pytest.mark.parametrize("kind", available_index_kinds())
    def test_an_index_kind_is_refused_in_the_parent(
        self, pooled, probes, kind, monkeypatch
    ):
        """An index kind gets the engine's unknown-method error, for an
        empty batch and a heatmap alike, and nothing is exported to a
        worker."""
        monkeypatch.setattr(pooled.pool, "_dispatch", _no_dispatch)
        exports = dict(pooled.pool.registry._exports)
        empty = QueryBatch(np.empty(0), np.empty(0), np.empty(0))
        for batch in (empty, probes):
            with pytest.raises(ValueError, match=f"unknown method {kind!r}"):
                pooled.continuous_query_batch(batch, kind)
        assert pooled.pool.registry._exports == exports
        assert not pooled.metrics["pool_fallbacks"].as_dict()

    def test_maintenance_sends_nothing_to_the_pool(self, small_dataset):
        """A registry over a pooled engine registers, maintains and
        re-executes in process: no worker starts, nothing is exported."""
        tuples = small_dataset.tuples
        cut = len(tuples) * 3 // 4
        router = ShardRouter(
            RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4), h=H
        )
        router.ingest(tuples.slice(0, cut))
        xm, ym = float(np.mean(tuples.x)), float(np.mean(tuples.y))
        with ShardedQueryEngine(router, processes=2) as engine:
            registry = registry_for(engine)
            registry.subscribe(
                [(xm - 300.0, ym - 300.0), (xm + 300.0, ym + 300.0)],
                float(tuples.t[cut - 1]),
                interval_s=60.0,
                count=12,
                method="naive",
            )
            router.ingest(tuples.slice(cut, len(tuples)))
            assert registry.maintain(), "no update: the pass re-executed nothing"
            assert not engine.metrics["pool_fallbacks"].as_dict()
            assert not engine.pool.registry._exports
            assert engine.pool._workers == [None, None]

    def test_close_stops_every_worker_and_unlinks_every_block(
        self, small_dataset, probes
    ):
        """``engine.close()`` ends every worker the pool started and
        unlinks every block it exported, leaving no descriptor or
        thread."""
        before = open_resources()
        blocks = _export_blocks()
        engine = ShardedQueryEngine(_router(small_dataset), processes=2)
        engine.heatmap_grid(
            float(probes.t[0]), small_dataset.covered_bbox(), nx=40, ny=30
        )
        made = _export_blocks() - blocks
        pids = [w.process.pid for w in engine.pool._workers if w is not None]
        assert len(pids) == 2 and made, "no worker or block: the check saw nothing"
        engine.close()
        assert engine.pool._workers == [None, None]
        assert not [pid for pid in pids if not _exited(pid)]
        assert not [name for name in made if os.path.exists(f"/dev/shm/{name}")]
        del engine
        assert_released(before)


def test_an_engine_without_a_pool_never_imports_it():
    """An in-process engine, its subscription registry and the service
    over them — built by hand or by ``repro.stack`` — leave the process
    path, and multiprocessing and the shared-memory exports with it,
    unloaded."""
    code = (
        "import sys\n"
        "from repro.geo.coords import BoundingBox\n"
        "from repro.query.sharded import ShardedQueryEngine\n"
        "from repro.query.subscriptions import registry_for\n"
        "from repro.server.async_server import EngineQueryService\n"
        "from repro.stack import StackConfig, build\n"
        "from repro.storage.shards import single_shard_router\n"
        "with ShardedQueryEngine(single_shard_router(240)) as engine:\n"
        "    EngineQueryService(engine, subscriptions=registry_for(engine))\n"
        "box = BoundingBox(0.0, 0.0, 6000.0, 4000.0)\n"
        "with build(StackConfig(subscriptions=True), box) as stack:\n"
        "    assert stack.service.subscriptions is not None\n"
        "print(sorted(m for m in ('repro.query.pipeline.parallel',\n"
        "    'repro.storage.shm', 'multiprocessing') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _children(pid: int) -> list:
    """Pids of the processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    ppid = int(stat.read().rpartition(")")[2].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            if ppid == pid:
                found.append(int(entry))
    return found


def _exited(pid: int) -> bool:
    """Whether process ``pid`` is gone or a zombie (exited, unreaped)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except OSError:
        return True


def _export_blocks() -> set:
    return {name for name in os.listdir("/dev/shm") if name.startswith("emshm_")}


def _post_heatmap(port: int) -> int:
    """POST one heatmap; its status.  ``cli serve`` prints its start-up
    line only once the port listens, so no retry is needed."""
    body = json.dumps({"t": 8.5 * 3600.0, "bounds": [0.0, 0.0, 6000.0, 4000.0]})
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", "/query/heatmap", body)
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


@pytest.mark.skipif(
    not (os.path.isdir("/dev/shm") and os.path.isdir("/proc")),
    reason="counts shared-memory blocks in /dev/shm and processes in /proc",
)
def test_a_killed_server_leaves_no_block_and_no_worker():
    """SIGKILL of a whole ``cli serve --processes 2`` server, not of a
    pool worker: within 10 s every export block it made is unlinked (by
    its resource tracker) and every child it started — workers and
    tracker — has exited."""
    before = _export_blocks()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        PYTHONUNBUFFERED="1",
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--days", "1", "--shards", "4",
         "--processes", "2", "--port", str(port)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )  # fmt: skip
    try:
        for line in server.stdout:
            if line.startswith("serving "):
                break
        else:
            pytest.fail("the server exited before serving")
        assert [_post_heatmap(port) for _ in range(3)] == [200] * 3
        blocks = _export_blocks() - before
        children = _children(server.pid)
        assert blocks, "no export block was made: the check saw nothing"
        assert len(children) >= 2, children  # the two workers, at least
    finally:
        server.kill()
        server.wait()
        server.stdout.close()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        left = [name for name in blocks if os.path.exists(f"/dev/shm/{name}")]
        alive = [pid for pid in children if not _exited(pid)]
        if not left and not alive:
            break
        time.sleep(0.05)
    assert not left, f"export blocks not unlinked: {left}"
    assert not alive, f"children still running: {alive}"
