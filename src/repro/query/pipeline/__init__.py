"""The unified execution-plan pipeline (one planner, one cache, one
snapshot binding — see ``docs/architecture.md``).

Every query path — :class:`~repro.query.engine.QueryEngine`,
:class:`~repro.query.sharded.ShardedQueryEngine`, and the two server
front ends — compiles requests into the plan IR of
:mod:`repro.query.pipeline.plan`, binds them to one pinned snapshot
(:mod:`repro.query.pipeline.binding`; standing-subscription maintenance
reads the same bindings), consults the single
statistics-backed planner (:mod:`repro.query.pipeline.planner`), caches
materialised processors in the one epoch-keyed
:class:`~repro.query.pipeline.cache.ProcessorCache`, and runs them
through the shared :class:`~repro.query.pipeline.executor.PlanExecutor`,
which reports observed op timings back to the planner.
"""

from repro.query.pipeline.binding import (
    EngineBinding,
    RouterBinding,
    ServerSnapshotBinding,
    SnapshotBinding,
)
from repro.query.pipeline.cache import CacheStats, ProcessorCache
from repro.query.pipeline.executor import (
    PlanExecutor,
    PlanRuntime,
    build_group_plan,
    build_sharded_plan,
)
from repro.query.pipeline.plan import (
    ENGINE_POLICY,
    SCALAR_POLICY,
    VECTORISED_POLICY,
    CoverOp,
    ExecutionPlan,
    ExecutionPolicy,
    FallbackOp,
    MergeOp,
    PlanContext,
    PlanReport,
    ScanOp,
    format_plan,
)
from repro.query.pipeline.planner import PipelinePlanner, PlannerFeedback

__all__ = [
    "ENGINE_POLICY",
    "SCALAR_POLICY",
    "VECTORISED_POLICY",
    "CacheStats",
    "CoverOp",
    "EngineBinding",
    "ExecutionPlan",
    "ExecutionPolicy",
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
    "ServerSnapshotBinding",
    "SnapshotBinding",
    "build_group_plan",
    "build_sharded_plan",
    "format_plan",
]
