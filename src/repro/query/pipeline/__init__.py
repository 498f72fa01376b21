"""The unified execution-plan pipeline (one planner, one cache, one
snapshot binding — see ``docs/architecture.md``).

Every query path runs through
:class:`~repro.query.sharded.ShardedQueryEngine` — the one query engine,
under the one front end,
:class:`~repro.server.async_server.EngineQueryService`, whether it
answers the paper's protocol in process or the web modes on the
socket.  It compiles
requests into the plan IR of :mod:`repro.query.pipeline.plan`, binds
them to one exact snapshot (:mod:`repro.query.pipeline.binding`;
standing-subscription maintenance reads the same binding), consults the
single statistics-backed planner (:mod:`repro.query.pipeline.planner`),
caches materialised processors in the one epoch-keyed
:class:`~repro.query.pipeline.cache.ProcessorCache`, and runs them
through the shared :class:`~repro.query.pipeline.executor.PlanExecutor`,
which reports observed op timings back to the planner.
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
from repro.query.pipeline.planner import PipelinePlanner, PlannerFeedback

__all__ = [
    "CacheStats",
    "CoverOp",
    "ExecutionPlan",
    "FallbackOp",
    "MergeOp",
    "PipelinePlanner",
    "PlanContext",
    "PlanExecutor",
    "PlanReport",
    "PlanRuntime",
    "PlannerFeedback",
    "ProcessorCache",
    "RouterBinding",
    "ScanOp",
    "SnapshotBinding",
    "build_sharded_plan",
    "format_plan",
]
