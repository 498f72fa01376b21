"""Process-parallel execution of sharded plans over shared-memory shards.

The serial :class:`~repro.query.pipeline.executor.PlanExecutor` runs an
exact plan's blocked gather in the calling thread.  This module runs the
same merge-shaped :class:`~repro.query.pipeline.plan.ExecutionPlan` on a
persistent pool of **worker processes**, one interpreter per worker, so
scans and index builds run truly in parallel.

A worker is the three things the engine is: a *binding* (``(shard,
window)`` to the pinned ``(stamp, slice, gids)``, here over
shared-memory attachments), a bounded
:class:`~repro.query.pipeline.cache.ProcessorCache` keyed and stamped
exactly as the engine's (for indexes), and a ``PlanExecutor`` wired by
the engine's own :func:`~repro.query.sharded.shard_runtime`.  It is sent
*sub-plans*,
runs each through that executor unmodified and returns its ``(values,
support, answered)`` — 17 bytes a query:

* each region shard's committed raw-tuple prefix is published once into
  a :mod:`multiprocessing.shared_memory` block
  (:class:`~repro.storage.shm.ShardExportRegistry`); a sub-plan ships
  query coordinates and, per op, the block's name and the shard-local
  ``[start, stop)`` row range of the op's pinned slice (resolved from
  the plan's binding, so workers read exactly the rows the builder
  pinned) — never the tuple columns;
* a **merge-shaped** plan is cut by *query* into contiguous ranges of
  equal scan cost (:meth:`ProcessPlanExecutor._chunks`), each a sub-plan
  of every op restricted to the range.  A query's answer reads nothing
  of any other query's, so the blocked gather over a range gives the
  whole plan's bytes for that range wherever the cuts fall: answers are
  **byte-identical** to the serial executor's at any worker count, and a
  hot shard's scan spreads over the workers by construction;
* a ``model-cover`` plan has no ops to send: it is answered in the
  parent, by the engine's own lanes
  (:meth:`~repro.query.sharded.ShardedQueryEngine.execute`), and is not
  a fallback.

Any failure on the process path — a worker killed mid-query, a pipe
timeout, an undecodable reply, a lost shared-memory block, a plan the
workers cannot be sent — abandons the attempt and re-runs the *whole
plan* in-process through the owning engine's serial executor: the same
answer, counted by reason in
:attr:`ProcessPlanExecutor.fallback_reasons`; a dead worker is respawned
lazily on the next request.  Plans may be executed from several threads
(the async server's pool does): a worker's pipe is held from a
request's send to its reply, locks taken in worker-index order.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import traceback
from collections import Counter
from contextlib import ExitStack
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.query.base import BatchResult, QueryBatch
from repro.query.pipeline.cache import ProcessorCache
from repro.query.pipeline.executor import PlanExecutor, record_scan_load
from repro.query.pipeline.gather import BLOCK_CELLS
from repro.query.pipeline.plan import (
    ExecutionPlan,
    MergeOp,
    PlanContext,
    PlanReport,
    ScanOp,
)
from repro.storage.shm import AttachedShard, ShardExportRegistry, attach_shard

__all__ = ["ProcessPlanExecutor", "ProcessShardedEngine", "WorkerCrash"]


class WorkerCrash(RuntimeError):
    """A worker died, timed out or errored; the plan fell back in-process."""


class _Unsupported(RuntimeError):
    """Plan contains ops the process path cannot serialize."""


# -- worker side -------------------------------------------------------------


class _WorkerBinding(dict):
    """``(shard, window)`` to the pinned ``(stamp, slice, gids)``, filled
    in by the request that carries the sub-plan."""

    def slice_for(self, shard: int, c: int) -> tuple:
        return self[shard, c]


def _cut(plan: ExecutionPlan, lo: int, hi: int) -> tuple:
    """A merge-shaped plan restricted to queries ``[lo, hi)``, as the
    sub-plan :meth:`ProcessPlanExecutor._dispatch` takes: coordinates,
    the plan's row counter, and ``(op, positions among those queries)``
    per op that scans any."""
    queries = plan.queries
    ops = []
    for op in plan.ops:
        first, end = op.positions.searchsorted((lo, hi))  # positions ascend
        if first < end:
            ops.append((op, op.positions[first:end] - lo))
    coords = (queries.t[lo:hi], queries.x[lo:hi], queries.y[lo:hi])
    return coords, plan.merge.n_stream_rows, ops


def _sub_plan(binding, coords, n_stream_rows: int, ops) -> ExecutionPlan:
    """The plan a worker runs: ``ops`` are ``(context, method, positions
    in coords)``, hit scans, and their merge."""
    queries = QueryBatch(*coords)
    built = [
        ScanOp(
            context,
            method,
            positions,
            QueryBatch._of_columns(
                queries.t[positions], queries.x[positions], queries.y[positions]
            ),
        )
        for context, method, positions in ops
    ]
    return ExecutionPlan(binding, queries, tuple(built), MergeOp(len(queries), n_stream_rows))


def _worker_main(conn, radius_m, cache_capacity) -> None:  # pragma: no cover - child process
    from repro.query.sharded import shard_runtime

    cache = ProcessorCache(cache_capacity)
    attached: Dict[int, Tuple[str, AttachedShard]] = {}  # one block per shard

    def attachment(s: int, descriptor) -> AttachedShard:
        name, shard = attached.get(s, (None, None))
        if name != descriptor.shm_name:
            # Requests reach a worker in the order their exports were
            # taken, so another name is a newer block: unmap the old.
            if shard is not None:
                del attached[s]
                shard.close()
            shard = attach_shard(descriptor)
            attached[s] = (descriptor.shm_name, shard)
        return shard

    def run(coords, n_stream_rows, specs):
        binding = _WorkerBinding()
        ops = []
        for descriptor, start, stop, s, c, stamp, method, positions in specs:
            shard = attachment(s, descriptor)
            sub = shard.batch.slice(start, stop)
            if method != "naive":
                # An index is cached and outlives the attachment: it is
                # built over rows of its own.
                sub = TupleBatch(*(np.array(col) for col in (sub.t, sub.x, sub.y, sub.s)))
            binding[s, c] = (stamp, sub, shard.gids[start:stop])
            ops.append((PlanContext(c, s, stamp, stop - start), method, positions))
        executor = PlanExecutor(shard_runtime(binding, cache, radius_m))
        result = executor.execute(_sub_plan(binding, coords, n_stream_rows, ops))
        return result.values, result.support, result.answered

    while True:
        try:
            kind, request_id, body = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if kind == "stop":
                break
            if kind == "stats":
                names = sorted(name for name, _shard in attached.values())
                conn.send(("ok", request_id, (cache.stats.as_dict(), names)))
            else:
                conn.send(("ok", request_id, run(*body)))
        except Exception:
            conn.send(("err", request_id, traceback.format_exc()))
    conn.close()


# -- parent side -------------------------------------------------------------


class _Worker:
    """One persistent spawn-context worker behind a duplex pipe."""

    def __init__(self, ctx, *worker_args) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, *worker_args), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.requests = 0  # id of the last request sent

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, kind: str, body=None) -> None:
        self.requests += 1
        self.conn.send((kind, self.requests, body))

    def reply(self, timeout_s: float) -> Tuple[bool, object]:
        """``(ok, body)`` of the reply to the last request sent; ``body``
        is the worker's traceback when the request failed there."""
        if not self.conn.poll(timeout_s):
            raise WorkerCrash("worker timed out")
        status, request_id, body = self.conn.recv()
        if request_id != self.requests:
            raise WorkerCrash("worker answered another request")
        return status == "ok", body

    def stop(self) -> None:
        try:
            if self.process.is_alive():
                self.send("stop")
                self.process.join(timeout=2.0)
        except (BrokenPipeError, OSError):
            pass
        self.kill()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.conn.close()


class ProcessPlanExecutor:
    """Executes sharded plans on a persistent process pool.

    ``engine`` is the owning
    :class:`~repro.query.sharded.ShardedQueryEngine` — the process path
    reads its router for shard prefixes, starts workers with its radius
    and cache capacity, answers ``model-cover`` plans, and its serial
    executor is the crash-recovery fallback.  Thread-safe.
    """

    def __init__(
        self,
        engine,
        processes: int = 2,
        timeout_s: float = 120.0,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be at least 1")
        self.engine = engine
        self.processes = processes
        self.timeout_s = timeout_s
        self.registry = ShardExportRegistry()
        self._ctx = mp.get_context("spawn")
        self._workers: List[Optional[_Worker]] = [None] * processes
        #: Held from a request's send to its reply; also guards the slot.
        self._locks = [threading.Lock() for _ in range(processes)]
        #: Plans that degraded to in-process execution, by the first
        #: clause of the failure's message.
        self.fallback_reasons: Counter = Counter()
        self._count_lock = threading.Lock()

    @property
    def fallbacks(self) -> int:
        """Plans that degraded to in-process execution."""
        return sum(self.fallback_reasons.values())

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and unlink every shared-memory export."""
        for i, lock in enumerate(self._locks):
            with lock:
                worker, self._workers[i] = self._workers[i], None
                if worker is not None:
                    worker.stop()
        self.registry.close()

    def __enter__(self) -> "ProcessPlanExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _worker(self, index: int) -> _Worker:
        """The live worker in slot ``index`` (whose lock is held)."""
        worker = self._workers[index]
        if worker is None or not worker.alive():
            if worker is not None:
                worker.kill()
            engine = self.engine
            worker = self._workers[index] = _Worker(
                self._ctx, engine.radius_m, engine.processor_cache.capacity
            )
        return worker

    def worker_stats(self) -> List[Optional[Tuple[dict, List[str]]]]:
        """Per worker slot: its processor cache's counters and the names
        of the shared-memory blocks it maps (None: no live worker)."""
        stats: List[Optional[Tuple[dict, List[str]]]] = []
        for index, lock in enumerate(self._locks):
            with lock:
                worker = self._workers[index]
                if worker is None or not worker.alive():
                    stats.append(None)
                    continue
                worker.send("stats")
                stats.append(worker.reply(self.timeout_s)[1])
        return stats

    # -- execution -----------------------------------------------------------

    def execute(
        self, plan: ExecutionPlan, report: Optional[PlanReport] = None
    ) -> BatchResult:
        """Run ``plan``; degrade to the engine's in-process executor on any
        worker failure (identical answer, never an error).  A
        ``model-cover`` plan is the engine's to answer, here."""
        if plan.merge is None:
            return self.engine.execute(plan, report)
        try:
            return self._run(plan)
        except (WorkerCrash, _Unsupported) as exc:
            with self._count_lock:
                self.fallback_reasons[str(exc).partition(":")[0]] += 1
            return self.engine.execute(plan, report)

    def _run(self, plan: ExecutionPlan) -> BatchResult:
        if not self.engine.router.prefix_exportable:
            # The segment store pages sealed windows to segment files, so no
            # contiguous in-memory shard prefix exists to export over
            # shared memory.
            raise _Unsupported("router does not export contiguous shard prefixes")
        n = plan.n_queries
        values = np.full(n, np.nan)
        support = np.zeros(n, dtype=np.int64)
        answered = np.zeros(n, dtype=bool)
        chunks = self._chunks(plan)
        replies = self._dispatch(plan, {windex: _cut(plan, lo, hi) for windex, lo, hi in chunks})
        for windex, lo, hi in chunks:
            values[lo:hi], support[lo:hi], answered[lo:hi] = replies[windex]
        return BatchResult(plan.queries, values, support, answered)

    def _chunks(self, plan: ExecutionPlan) -> List[Tuple[int, int, int]]:
        """``(worker, first, end)`` per sub-plan of a merge-shaped plan:
        contiguous ranges of ``plan.queries`` of equal scan cost, a query
        costing the rows of every slice that scans it (what a block of
        the gather is budgeted in) — a function of the plan alone.  At
        most ``processes`` ranges, and no more than the plan has
        :data:`~repro.query.pipeline.gather.BLOCK_CELLS` of cost: a point
        or route query stays on one worker.  Range ``i`` goes to worker
        ``(home + i) % processes``, ``home`` the first op's shard's.
        """
        if not plan.ops:
            return []
        cost = np.zeros(plan.n_queries, dtype=np.int64)
        for op in plan.ops:
            cost[op.positions] += op.context.n_rows
        spent = np.cumsum(cost)
        total = int(spent[-1])
        k = max(1, min(self.processes, total // BLOCK_CELLS))
        cuts = spent.searchsorted(total * np.arange(1, k) // k, side="right")
        cuts = np.unique(np.concatenate(([0], cuts, [plan.n_queries]))).tolist()
        home = plan.ops[0].context.shard
        return [
            ((home + i) % self.processes, lo, hi)
            for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        ]

    # -- op serialization ----------------------------------------------------

    def _export(self, plan: ExecutionPlan, op) -> tuple:
        """The wire form of ``op``'s pinned slice: its shard's export
        descriptor, the shard-local row range, ``(shard, window, stamp)``."""
        s, c = op.context.shard, op.context.window_c
        router = self.engine.router
        stamp, sub, _gids = plan.binding.slice_for(s, c)
        # The binding's slice is pinned at plan-build time, but cuts and
        # shard prefixes are read *live* here — a shard split/merge
        # between build and dispatch would pair old-layout slices with
        # new-layout row ranges.  Detect the mismatch and take the
        # documented in-process fallback (the binding's memoised slices
        # make it byte-identical).
        layout = router.layout_epoch
        if plan.binding.layout_epoch != layout:
            raise _Unsupported("plan pinned an older shard layout")
        cuts = router.cuts(s)
        if c >= len(cuts):  # pragma: no cover - binding would have raised
            raise _Unsupported(f"window {c} has no recorded cut")
        start = cuts[c]
        stop = start + len(sub)
        descriptor = self.registry.ensure(
            s, stop, lambda: router.shard_column(s), layout=layout
        )
        if router.layout_epoch != layout:
            # A rebalance raced the cut/prefix reads above; the ranges
            # may describe the new layout's rows.
            raise _Unsupported("shard layout changed during serialization")
        return descriptor, start, stop, s, c, stamp

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, plan: ExecutionPlan, requests: Dict[int, tuple]) -> Dict[int, tuple]:
        """Run each worker index's sub-plan ``(coords, n_stream_rows,
        [(op, positions)])``; returns, per worker, its ``(values,
        support, answered)``."""
        ops = {id(op): op for _coords, _rows, pairs in requests.values() for op, _ in pairs}
        with ExitStack() as held:
            # Every pipe this plan uses is held, in worker-index order,
            # from its send to its reply: two plans' frames never
            # interleave on a pipe.  Exports are taken under the same
            # locks, so a worker sees a shard's descriptors oldest first
            # — and before anything is sent, so no reply is left unread.
            for windex in sorted(requests):
                held.enter_context(self._locks[windex])
            exported = {key: self._export(plan, op) for key, op in ops.items()}
            pending: List[Tuple[int, _Worker]] = []
            try:
                for windex, (coords, rows, pairs) in requests.items():
                    worker = self._worker(windex)
                    pending.append((windex, worker))
                    specs = [(*exported[id(op)], op.method, at) for op, at in pairs]
                    worker.send("run", (coords, rows, specs))
            except (BrokenPipeError, OSError) as exc:
                for windex, _worker in pending:
                    self._kill(windex)
                raise WorkerCrash(f"worker pipe failed during send: {exc}") from exc
            replies: Dict[int, tuple] = {}
            failure: Optional[str] = None
            for windex, worker in pending:
                try:
                    ok, body = worker.reply(self.timeout_s)
                except Exception as exc:
                    # A time-out, EOF, a broken pipe, or bytes that do
                    # not decode: whatever a child process sent, it is
                    # not trusted with the next request either.
                    self._kill(windex)
                    lost = f"worker lost: {type(exc).__name__}: {exc}"
                    failure = failure or (str(exc) if isinstance(exc, WorkerCrash) else lost)
                    continue
                if ok:
                    replies[windex] = body
                else:
                    failure = failure or f"worker error: {body}"
            if failure is not None:
                raise WorkerCrash(failure)
        # Workers do not time their scans per op: seconds is None, and
        # the tracker keeps its unit-based EWMA either way.
        record_scan_load(self.engine.router.load.record_scan, list(ops.values()))
        return replies

    def _kill(self, windex: int) -> None:
        worker, self._workers[windex] = self._workers[windex], None
        if worker is not None:
            worker.kill()


class ProcessShardedEngine:
    """The three web-interface request shapes on the process pool.

    A thin facade pairing a :class:`~repro.query.sharded.ShardedQueryEngine`
    (which compiles the plans and owns the crash-recovery fallback) with a
    :class:`ProcessPlanExecutor` (which runs them).  Answers are
    byte-identical to calling the sharded engine directly.
    """

    def __init__(
        self,
        engine,
        processes: int = 2,
        timeout_s: float = 120.0,
    ) -> None:
        self.engine = engine
        self.executor = ProcessPlanExecutor(
            engine, processes=processes, timeout_s=timeout_s
        )

    def close(self) -> None:
        self.executor.close()
        self.engine.close()

    def __enter__(self) -> "ProcessShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def continuous_query_batch(
        self, queries, method: str = "naive"
    ) -> BatchResult:
        batch = (
            queries
            if isinstance(queries, QueryBatch)
            else QueryBatch.from_queries(queries)
        )
        if not len(batch) or method == "model-cover":  # answered in this process
            return self.engine.continuous_query_batch(batch, method=method)
        return self.executor.execute(self.engine.plan(batch, method))

    def point_query(self, t: float, x: float, y: float, method: str = "naive"):
        batch = QueryBatch(np.array([t]), np.array([x]), np.array([y]))
        return self.continuous_query_batch(batch, method=method).result(0)

    def heatmap_grid(
        self, t: float, bounds, nx: int = 40, ny: int = 30, method: str = "naive"
    ) -> np.ndarray:
        probes = QueryBatch.from_grid(
            t, bounds.min_x, bounds.min_y, bounds.width, bounds.height, nx, ny
        )
        return self.continuous_query_batch(probes, method=method).grid(ny, nx)
