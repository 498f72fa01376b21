"""The serving stack under test, composed exactly as ``cli._serve_network``.

``RegionGrid.for_shard_count`` -> ``ShardRouter | TieredShardRouter`` ->
``ShardedQueryEngine`` -> ``EngineQueryService``.  The launcher
(``serve.py``), the in-process oracle and the traced run all build it
here, so they cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.sharded import ShardedQueryEngine
from repro.server.async_server import EngineQueryService
from repro.storage.shards import ShardRouter
from repro.storage.tiered import TieredShardRouter

from benchmarks.e2e.workloads import N_SHARDS


def build_router(
    backend: str,
    bbox: BoundingBox,
    h: int,
    data_dir: Optional[Path] = None,
    memory_windows: Optional[int] = None,
):
    grid = RegionGrid.for_shard_count(bbox, N_SHARDS)
    if backend == "memory":
        return ShardRouter(grid, h=h)
    if backend == "tiered":
        if data_dir is None:
            raise ValueError("the tiered backend needs a data directory")
        return TieredShardRouter(
            grid, h=h, data_dir=data_dir, memory_windows=memory_windows
        )
    raise ValueError(f"unknown backend {backend!r}")


def ingest_batches(
    router,
    tuples: TupleBatch,
    start: int,
    stop: int,
    batch_rows: int,
    after: Optional[Callable[[], None]] = None,
) -> None:
    """Feed ``tuples[start:stop]`` in ``batch_rows`` batches (``after`` runs
    once per batch: the live writer's ``registry.notify_ingest``)."""
    for lo in range(start, stop, batch_rows):
        router.ingest(tuples.slice(lo, min(lo + batch_rows, stop)))
        if after is not None:
            after()


@dataclass
class Stack:
    router: Any
    engine: ShardedQueryEngine
    service: EngineQueryService
    registry: Any  # SubscriptionRegistry or None

    def close(self) -> None:
        self.engine.close()
        if hasattr(self.router, "close"):
            self.router.close()


def build_stack(
    router,
    method: str,
    subscriptions: bool,
    wrap_router: Callable[[Any], Any] = lambda r: r,
    wrap_engine: Callable[[Any], Any] = lambda e: e,
) -> Stack:
    """Engine + service over ``router``.  The ``wrap_*`` hooks let the
    traced run put its delegating proxies between the layers."""
    engine = ShardedQueryEngine(wrap_router(router))
    registry = None
    if subscriptions:
        from repro.query.subscriptions import registry_for

        registry = registry_for(engine)
    service = EngineQueryService(
        wrap_engine(engine), method=method, subscriptions=registry
    )
    return Stack(router, engine, service, registry)
