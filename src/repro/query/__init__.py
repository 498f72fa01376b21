"""Query processing (Section 2.2).

Query 1 — the *continuous value query*: a mobile object transmits query
tuples ``q_l = (t_l, x_l, y_l)`` at a uniform interval; the system
interpolates the sensor value at each position.  Three processors:

* :class:`NaiveProcessor` — exhaustive radius-``r`` scan + average;
* :class:`~repro.query.indexed.IndexedProcessor` — same semantics over a
  spatial index (the paper's per-window baselines, Fig. 6a);
* :class:`ModelCoverProcessor` — nearest-centroid model evaluation.

Every processor answers one query at a time (``process``) and many at
once (``process_batch`` over a columnar :class:`QueryBatch`) — the
batched path is vectorised with NumPy and is what the engine's heatmap
and continuous modes use; see ``repro/query/README.md``.

:class:`ShardedQueryEngine` is the one query engine: it ties processors
to a region-sharded tuple store and its window choice (an unsharded
store is a one-region router), :mod:`repro.query.executor` splits a
stream into per-window query groups (the oracles' reference), and
:mod:`repro.query.continuous` turns a route into Query 1's uniform
query-tuple stream, which the engine answers as one batch.
"""

from repro.query.base import (
    BatchResult,
    PointQueryProcessor,
    QueryBatch,
    QueryResult,
    process_batch,
    process_batch_scalar,
)
from repro.query.continuous import uniform_query_tuples
from repro.query.executor import QueryGroup, group_queries_by_window
from repro.query.modelcover import ModelCoverProcessor
from repro.query.naive import NaiveProcessor
from repro.query.pipeline import ExecutionPlan, ProcessorCache, format_plan
from repro.query.sharded import SHARDED_METHODS, ShardedQueryEngine

__all__ = [
    "SHARDED_METHODS",
    "ShardedQueryEngine",
    "BatchResult",
    "PointQueryProcessor",
    "QueryBatch",
    "QueryGroup",
    "QueryResult",
    "group_queries_by_window",
    "process_batch",
    "process_batch_scalar",
    "uniform_query_tuples",
    "ExecutionPlan",
    "ModelCoverProcessor",
    "NaiveProcessor",
    "ProcessorCache",
    "format_plan",
]
