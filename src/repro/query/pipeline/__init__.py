"""The unified execution-plan pipeline (one plan IR, one cache, one
snapshot binding — see ``docs/architecture.md``).

Every query path runs through
:class:`~repro.query.sharded.ShardedQueryEngine` — the one query engine,
under the one front end,
:class:`~repro.server.async_server.EngineQueryService`, whether it
answers the paper's protocol in process or the web modes on the
socket.  It compiles
requests into the plan IR of :mod:`repro.query.pipeline.plan`, binds
them to one exact snapshot (:mod:`repro.query.pipeline.binding`;
standing-subscription maintenance reads the same binding), caches
materialised processors in the one epoch-keyed
:class:`~repro.query.pipeline.cache.ProcessorCache`, and runs them
through the shared :class:`~repro.query.pipeline.executor.PlanExecutor`,
which reports observed op timings to the shard-load tracker.
"""

from repro.query.pipeline.binding import RouterBinding, SnapshotBinding
from repro.query.pipeline.cache import CacheStats, ProcessorCache
from repro.query.pipeline.executor import (
    PlanExecutor,
    PlanRuntime,
    build_sharded_plan,
)
from repro.query.pipeline.plan import (
    CoverOp,
    ExecutionPlan,
    FallbackOp,
    MergeOp,
    PlanContext,
    PlanReport,
    ScanOp,
    format_plan,
)

__all__ = [
    "CacheStats",
    "CoverOp",
    "ExecutionPlan",
    "FallbackOp",
    "MergeOp",
    "PlanContext",
    "PlanExecutor",
    "PlanReport",
    "PlanRuntime",
    "ProcessorCache",
    "RouterBinding",
    "ScanOp",
    "SnapshotBinding",
    "build_sharded_plan",
    "format_plan",
]
