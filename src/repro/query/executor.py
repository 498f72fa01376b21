"""Per-window grouping of a query stream, and its reassembly.

Continuous queries span windows: each query tuple is answered by the
processor of the window its timestamp falls in (the server's lazy-update
policy).  :func:`group_queries_by_window` splits a stream into
per-window groups and :func:`scatter_results` reassembles their answers
in stream order — the per-window reference the oracles and
``bench_batch_execution`` compose processors with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.data.tuples import QueryTuple
from repro.query.base import BatchResult, QueryBatch


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
