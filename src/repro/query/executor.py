"""Pool plumbing for the plan pipeline: grouping and fan-out.

Continuous queries span windows: each query tuple is answered by the
processor of the window its timestamp falls in (the server's lazy-update
policy).  :func:`group_queries_by_window` splits a stream into
per-window groups and :func:`scatter_results` reassembles their answers
in stream order — the per-window reference the oracles and
``bench_batch_execution`` compose processors with — and
:class:`BatchExecutor` is the bounded thread pool the shared
:class:`~repro.query.pipeline.executor.PlanExecutor` fans those ops out
on (one ``process_batch`` call per op/task; merge-shaped plans run
their blocked gather in the calling thread).

Thread-safety contract: a materialised processor is immutable after
construction — ``process``/``process_batch`` only read the window arrays,
the index, or the fitted cover — so any number of pool threads may query
*distinct* groups (or even the same processor) concurrently.  The plan
executor still materialises every cover op's processor before the
fan-out, in the caller's thread, so pool threads only ever call
``process_batch`` and a build's cost never lands inside an op's timer.

Choosing ``max_workers``: the work per group is numpy-heavy (distance
matrices, model evaluation), which releases the GIL for its inner loops,
so ``min(number of groups, CPUs this process may run on)`` is the sweet
spot — the :class:`BatchExecutor` default, read once at construction
from the scheduler affinity (which, unlike ``os.cpu_count()``, honours
``taskset``/cpusets: a process pinned to one CPU runs every map as a
plain loop instead of time-slicing pool threads).  Pure-Python-bound
processors (the tree indexes) gain little from extra threads;
``max_workers=1`` degrades to an ordinary loop with zero pool overhead.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.data.tuples import QueryTuple
from repro.query.base import BatchResult, QueryBatch

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class QueryGroup:
    """The queries of one stream that share a window.

    ``indices`` are the positions of the group's queries in the original
    stream, so per-group results can be scattered back in input order.
    """

    window_c: int
    indices: np.ndarray
    queries: QueryBatch


def group_queries_by_window(
    queries: Sequence[QueryTuple] | QueryBatch,
    window_for_time: Callable[[float], int],
    windows_for_times: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> List[QueryGroup]:
    """Split a query stream into per-window groups (ascending window).

    ``window_for_time`` is the engine's timestamp→window mapping, called
    once per query in the calling thread; pass ``windows_for_times`` (its
    vectorised form, e.g. a binding's ``windows_for_times``) to map
    the whole stream in one array op instead.
    """
    batch = (
        queries if isinstance(queries, QueryBatch) else QueryBatch.from_queries(queries)
    )
    if not len(batch):
        return []
    if windows_for_times is not None:
        windows = np.asarray(windows_for_times(batch.t), dtype=np.int64)
    else:
        windows = np.fromiter(
            (window_for_time(float(t)) for t in batch.t),
            dtype=np.int64,
            count=len(batch),
        )
    groups: List[QueryGroup] = []
    for c in np.unique(windows):
        idx = np.flatnonzero(windows == c)
        groups.append(QueryGroup(int(c), idx, batch.take(idx)))
    return groups


def usable_cpus() -> int:
    """CPUs this process may be scheduled on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # not every platform has affinity
        return os.cpu_count() or 1


def scatter_results(
    groups: Sequence[QueryGroup], results: Sequence[BatchResult], n: int
) -> BatchResult:
    """Reassemble per-group results into one stream-ordered BatchResult."""
    if len(groups) != len(results):
        raise ValueError("one result per group required")
    values = np.full(n, np.nan)
    support = np.zeros(n, dtype=np.int64)
    answered = np.zeros(n, dtype=bool)
    t = np.empty(n)
    x = np.empty(n)
    y = np.empty(n)
    for group, res in zip(groups, results):
        idx = group.indices
        values[idx] = res.values
        support[idx] = res.support
        answered[idx] = res.answered
        t[idx] = group.queries.t
        x[idx] = group.queries.x
        y[idx] = group.queries.y
    return BatchResult(QueryBatch(t, x, y), values, support, answered)


class BatchExecutor:
    """Fans independent group tasks across a bounded thread pool.

    The pool is created lazily on the first parallel :meth:`map` and then
    reused, so repeated continuous queries do not pay thread start-up per
    call.  ``ThreadPoolExecutor`` submission is itself thread-safe, so one
    executor instance may be shared freely; :meth:`shutdown` (or interpreter
    exit) reclaims the worker threads.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        # Pool size: the caller's cap, else the CPUs this process may
        # use — read once, not per map (a policy input, not a clock).
        self.max_workers = max_workers or usable_cpus()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def workers_for(self, n_tasks: int) -> int:
        return max(1, min(self.max_workers, n_tasks))

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-batch"
                )
            return self._pool

    def shutdown(self) -> None:
        """Tear the pool down (idempotent; a later map recreates it)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """``[fn(t) for t in tasks]``, in order, possibly in parallel.

        Falls back to a plain loop for a single task or a single worker —
        the common point-query case pays no pool overhead.
        """
        if not tasks:
            return []
        if self.workers_for(len(tasks)) == 1 or len(tasks) == 1:
            return [fn(t) for t in tasks]
        return list(self._ensure_pool().map(fn, tasks))
