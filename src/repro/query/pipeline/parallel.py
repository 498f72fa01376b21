"""Process-parallel execution of sharded plans over shared-memory shards.

The serial :class:`~repro.query.pipeline.executor.PlanExecutor` fans plan
ops across a *thread* pool — real concurrency only where numpy drops the
GIL.  This module executes the same
:class:`~repro.query.pipeline.plan.ExecutionPlan` IR on a persistent pool
of **worker processes**, one interpreter per worker, so hit scans, index
builds and Ad-KMN cover fits run truly in parallel:

* each region shard's committed raw-tuple prefix is published once into
  a :mod:`multiprocessing.shared_memory` block
  (:class:`~repro.storage.shm.ShardExportRegistry`) — workers slice plan
  ops' bound windows zero-copy out of the block, so a request ships only
  the op metadata and its query coordinates, never the tuple columns;
* ops are serialized as plain dicts at the plan-IR boundary: kind,
  method, shard-local ``[start, stop)`` row range (resolved from the
  plan's pinned binding, so workers read exactly the rows the builder
  pinned), query arrays, and the Ad-KMN config for cover ops;
* workers return hit triples / result arrays; the parent re-maps probe
  indices through each op's stream positions and merges them with
  :func:`~repro.query.pipeline.gather.merge_hit_partials` — the same
  canonical ``(query, stream position)`` stable sort and segmented sum
  the in-process blocked gather applies per block, over whole-op units
  (hit triples are this executor's wire format: they must cross a
  pipe).  The canonical order makes the merged answer independent of
  which process produced which partial, so answers are
  **byte-identical** to the serial executor's at any worker count.

Worker-crash recovery: any failure on the process path — a worker killed
mid-query (``kill -9``), a pipe timeout, a lost shared-memory block, an
op the workers cannot serialize — abandons the process attempt and
re-runs the *whole plan* in-process through the owning engine's serial
executor.  The caller sees a correct (identical) answer either way;
the dead worker is respawned lazily on the next request.

Determinism note: worker-side cover fits call the same
:func:`~repro.core.adkmn.fit_adkmn` on the same pinned rows with the same
seeded config as the parent's cache build, so a cover answer computed in
a worker is bit-for-bit the answer the parent would have computed.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.query.base import BatchResult, QueryBatch
from repro.query.pipeline.gather import merge_hit_partials
from repro.query.pipeline.plan import (
    CoverOp,
    ExecutionPlan,
    FallbackOp,
    PlanReport,
    ScanOp,
)
from repro.storage.shm import ShardExportDescriptor, ShardExportRegistry, attach_shard

__all__ = ["ProcessPlanExecutor", "ProcessShardedEngine", "WorkerCrash"]


class WorkerCrash(RuntimeError):
    """A worker died, timed out or errored; the plan fell back in-process."""


class _Unsupported(RuntimeError):
    """Plan contains ops the process path cannot serialize."""


# -- worker side -------------------------------------------------------------
#
# The worker is a tiny interpreter over serialized op dicts.  It keeps two
# caches for the lifetime of the process: shared-memory attachments by
# block name, and built processors (indexes, fitted covers) keyed by the
# exact rows + method they were built from — so repeated heatmaps against
# sealed windows pay the fit exactly once per worker, mirroring the
# parent's epoch-keyed ProcessorCache (a block name pins immutable rows,
# so no epoch is needed in the key).


def _worker_main(conn) -> None:  # pragma: no cover - runs in child processes
    from repro.core.adkmn import fit_adkmn
    from repro.query.base import process_batch, process_batch_scalar
    from repro.query.indexed import IndexedProcessor
    from repro.query.modelcover import ModelCoverProcessor
    from repro.query.naive import NaiveProcessor
    from repro.query.pipeline.gather import index_hits, scan_hits

    attachments: Dict[str, object] = {}
    processors: Dict[tuple, object] = {}

    def resolve(spec):
        desc: ShardExportDescriptor = spec["descriptor"]
        attached = attachments.get(desc.shm_name)
        if attached is None:
            attached = attach_shard(desc)
            attachments[desc.shm_name] = attached
        start, stop = spec["start"], spec["stop"]
        sub = attached.batch.slice(start, stop)
        gids = attached.gids[start:stop]
        return desc.shm_name, sub, gids

    def processor_for(spec, sub, key_extra=()):
        name = spec["descriptor"].shm_name
        key = (name, spec["start"], spec["stop"], spec["method"]) + key_extra
        proc = processors.get(key)
        if proc is None:
            if spec["method"] == "model-cover":
                result = fit_adkmn(sub, spec["config"], window_c=spec["window_c"])
                proc = ModelCoverProcessor(result.cover)
            elif spec["method"] == "naive":
                proc = NaiveProcessor(sub, radius_m=spec["radius_m"])
            else:
                proc = IndexedProcessor(
                    sub, kind=spec["method"], radius_m=spec["radius_m"]
                )
            processors[key] = proc
        return proc

    def run_op(spec):
        _, sub, gids = resolve(spec)
        queries = QueryBatch(*spec["queries"])
        if spec["kind"] == "hits":
            if spec["method"] == "naive":
                probe, gid, vals = scan_hits(sub, gids, queries, spec["radius_m"])
            else:
                proc = processor_for(spec, sub)
                probe, gid, vals = index_hits(proc, gids, queries)
            return spec["op_index"], ("hits", probe, gid, vals)
        proc = processor_for(spec, sub, key_extra=(repr(spec.get("config")),))
        if spec.get("vectorise", True):
            res = process_batch(proc, queries)
        else:
            res = process_batch_scalar(proc, queries)
        return spec["op_index"], ("result", res.values, res.support, res.answered)

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        if msg[0] == "ping":
            conn.send(("pong",))
            continue
        _, request_id, specs = msg
        try:
            conn.send(("ok", request_id, [run_op(spec) for spec in specs]))
        except Exception:
            conn.send(("err", request_id, traceback.format_exc()))
    conn.close()


# -- parent side -------------------------------------------------------------


class _Worker:
    """One persistent spawn-context worker behind a duplex pipe."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        try:
            if self.process.is_alive():
                self.conn.send(("stop",))
                self.process.join(timeout=2.0)
        except (BrokenPipeError, OSError):
            pass
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.conn.close()


class ProcessPlanExecutor:
    """Executes sharded plans on a persistent per-shard process pool.

    ``engine`` is the owning
    :class:`~repro.query.sharded.ShardedQueryEngine` — the process path
    reads its router for shard prefixes and its config/radius for op
    serialization, and its serial executor is the crash-recovery
    fallback.  Shard ``s`` is always served by worker ``s % processes``,
    so each worker's processor cache stays hot for its shards.
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
        self._request_counter = 0
        self.fallbacks = 0  # plans that degraded to in-process execution

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and unlink every shared-memory export."""
        for i, worker in enumerate(self._workers):
            if worker is not None:
                worker.stop()
                self._workers[i] = None
        self.registry.close()

    def __enter__(self) -> "ProcessPlanExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _worker(self, index: int) -> _Worker:
        worker = self._workers[index]
        if worker is None or not worker.alive():
            if worker is not None:
                worker.stop()
            worker = _Worker(self._ctx)
            self._workers[index] = worker
        return worker

    def _worker_for_shard(self, s: int) -> int:
        return s % self.processes

    # -- execution -----------------------------------------------------------

    def execute(
        self, plan: ExecutionPlan, report: Optional[PlanReport] = None
    ) -> BatchResult:
        """Run ``plan``; degrade to the engine's in-process executor on any
        worker failure (identical answer, never an error)."""
        try:
            return self._execute_process(plan)
        except (WorkerCrash, _Unsupported):
            self.fallbacks += 1
            return self.engine.execute(plan, report)

    def _execute_process(self, plan: ExecutionPlan) -> BatchResult:
        if plan.merge is not None:
            return self._execute_merge(plan)
        return self._execute_scatter(plan)

    def _execute_merge(self, plan: ExecutionPlan) -> BatchResult:
        ops: Sequence[ScanOp] = plan.ops  # type: ignore[assignment]
        replies = self._dispatch(plan, list(ops))
        partials = []
        for op, payload in zip(ops, replies):
            kind, probe, gid, vals = payload
            if kind != "hits":  # pragma: no cover - protocol invariant
                raise WorkerCrash("expected hit partial")
            partials.append((op.positions[probe], gid, vals))
        merge = plan.merge
        assert merge is not None
        return merge_hit_partials(
            merge.n_queries, merge.n_stream_rows, partials, plan.queries
        )

    def _execute_scatter(self, plan: ExecutionPlan) -> BatchResult:
        result_ops: List[ScanOp | CoverOp] = []
        fallback_ops: List[FallbackOp] = []
        for op in plan.ops:
            if isinstance(op, FallbackOp):
                fallback_ops.append(op)
            else:
                result_ops.append(op)
        replies = self._dispatch(plan, result_ops)
        results = []
        for op, payload in zip(result_ops, replies):
            kind, values, support, answered = payload
            if kind != "result":  # pragma: no cover - protocol invariant
                raise WorkerCrash("expected result arrays")
            results.append(BatchResult(op.queries, values, support, answered))
        # Sub-plans run on the process path too (they are merge-shaped) —
        # and if *they* crash-fall-back the whole plan falls back, keeping
        # one execution discipline per request.
        sub_results = [self._execute_process(fop.plan) for fop in fallback_ops]
        if (
            len(result_ops) == 1
            and not fallback_ops
            and len(result_ops[0].queries) == plan.n_queries
        ):
            return results[0]
        n = plan.n_queries
        values = np.full(n, np.nan)
        support = np.zeros(n, dtype=np.int64)
        answered = np.zeros(n, dtype=bool)
        for op, res in zip(result_ops, results):
            idx = op.positions
            values[idx] = res.values
            support[idx] = res.support
            answered[idx] = res.answered
        for fop, res in zip(fallback_ops, sub_results):
            idx = fop.positions
            values[idx] = res.values
            support[idx] = res.support
            answered[idx] = res.answered
        return BatchResult(plan.queries, values, support, answered)

    # -- op serialization ----------------------------------------------------

    def _serialize_op(self, plan: ExecutionPlan, op) -> dict:
        s = op.context.shard
        if s is None:
            raise _Unsupported("process execution needs sharded plan contexts")
        if not self.engine.router.prefix_exportable:
            # The segment store pages sealed windows to segment files, so no
            # contiguous in-memory shard prefix exists to export over
            # shared memory.  The executor's documented fallback runs the
            # whole plan in-process — byte-identical answers, same plan.
            raise _Unsupported("router does not export contiguous shard prefixes")
        c = op.context.window_c
        _stamp, sub, _gids = plan.binding.slice_for(s, c)
        router = self.engine.router
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
        spec = {
            "op_index": 0,  # assigned by the dispatcher
            "kind": "hits" if getattr(op, "emit", "result") == "hits" else "result",
            "method": op.method,
            "descriptor": descriptor,
            "start": start,
            "stop": stop,
            "window_c": c,
            "shard": s,
            "queries": (op.queries.t, op.queries.x, op.queries.y),
            "radius_m": self.engine.radius_m,
        }
        if op.method == "model-cover":
            spec["config"] = self.engine.config
        if isinstance(op, ScanOp) and op.emit == "result":
            spec["vectorise"] = op.vectorise
        return spec

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, plan: ExecutionPlan, ops: Sequence) -> List[tuple]:
        """Run ``ops`` across the pool; returns payloads in op order."""
        if not ops:
            return []
        by_worker: Dict[int, List[dict]] = {}
        # Deterministic least-loaded placement for replica ops: a
        # shard's primary op (replica 0) stays on its home worker, so
        # that worker's processor cache stays hot; the extra replica
        # chunks of a hot shard go wherever the least query load has
        # accumulated so far (ties break on the lowest worker index).
        loads = [0] * self.processes
        for op_index, op in enumerate(ops):
            spec = self._serialize_op(plan, op)
            spec["op_index"] = op_index
            if getattr(op, "replica", 0) > 0:
                windex = min(range(self.processes), key=lambda w: (loads[w], w))
            else:
                windex = self._worker_for_shard(spec["shard"])
            loads[windex] += len(op.queries)
            by_worker.setdefault(windex, []).append(spec)
        self._request_counter += 1
        request_id = self._request_counter
        pending: List[Tuple[int, _Worker]] = []
        try:
            for windex, specs in by_worker.items():
                worker = self._worker(windex)
                worker.conn.send(("run", request_id, specs))
                pending.append((windex, worker))
        except (BrokenPipeError, OSError) as exc:
            self._reap(pending)
            raise WorkerCrash(f"worker pipe failed during send: {exc}") from exc
        payloads: List[Optional[tuple]] = [None] * len(ops)
        failure: Optional[str] = None
        for windex, worker in pending:
            try:
                if not worker.conn.poll(self.timeout_s):
                    raise WorkerCrash(f"worker {windex} timed out")
                status, got_id, body = worker.conn.recv()
            except (EOFError, OSError, WorkerCrash) as exc:
                self._kill(windex)
                failure = failure or str(exc)
                continue
            if status != "ok" or got_id != request_id:
                failure = failure or f"worker {windex}: {body}"
                continue
            for op_index, payload in body:
                payloads[op_index] = payload
        if failure is not None or any(p is None for p in payloads):
            raise WorkerCrash(failure or "incomplete worker replies")
        # Record scan load on the router's tracker (workers do not time
        # their scans per-op, so seconds is None — the tracker keeps its
        # unit-based EWMA either way).
        tracker = self.engine.router.load
        for op in ops:
            per_query = (
                op.eval_unit_cost
                if getattr(op, "eval_unit_cost", None) is not None
                else float(max(op.context.n_rows, 1))
            )
            tracker.record_scan(
                op.context.shard, len(op.queries),
                per_query * len(op.queries), None,
            )
        return payloads  # type: ignore[return-value]

    def _kill(self, windex: int) -> None:
        worker = self._workers[windex]
        if worker is not None:
            try:
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=2.0)
            except Exception:  # pragma: no cover - already gone
                pass
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            self._workers[windex] = None

    def _reap(self, pending) -> None:
        for windex, _worker in pending:
            self._kill(windex)


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
        if not len(batch):
            return BatchResult(batch, np.empty(0), np.empty(0, dtype=np.int64))
        return self.executor.execute(self.engine.plan(batch, method))

    def point_query(self, t: float, x: float, y: float, method: str = "naive"):
        batch = QueryBatch(np.array([t]), np.array([x]), np.array([y]))
        return self.continuous_query_batch(batch, method=method).result(0)

    def cached_point(self, t: float, x: float, y: float, method: str = "naive"):
        """A cached cover is evaluated here, not on a worker: see
        :meth:`ShardedQueryEngine.cached_point`."""
        return self.engine.cached_point(t, x, y, method=method)

    def heatmap_grid(
        self, t: float, bounds, nx: int = 40, ny: int = 30, method: str = "naive"
    ) -> np.ndarray:
        probes = QueryBatch.from_grid(
            t, bounds.min_x, bounds.min_y, bounds.width, bounds.height, nx, ny
        )
        return self.continuous_query_batch(probes, method=method).grid(ny, nx)
