"""The serving stack in one place: :class:`StackConfig` names a
deployment (each field is the ``cli serve`` flag of that name) and
:func:`build` wires it (docs/architecture.md, "The serving stack")."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.sharded import ShardedQueryEngine, check_method
from repro.query.subscriptions import registry_for
from repro.server.async_server import EngineQueryService
from repro.storage.shards import ShardRouter
from repro.storage.tiered import TieredShardRouter


@dataclass(frozen=True)
class StackConfig:
    """One deployment.  An invalid combination raises ``ValueError``
    here, before anything is built; ranges are the router's and the
    engine's to check."""

    shards: int = 1
    h: int = 240
    method: str = "naive"
    processes: Optional[int] = None
    data_dir: Optional[Union[str, Path]] = None
    memory_windows: Optional[int] = None
    subscriptions: bool = False

    def __post_init__(self) -> None:
        check_method(self.method)
        if self.memory_windows is not None and self.data_dir is None:
            raise ValueError("--memory-windows needs --data-dir")


@dataclass
class Stack:
    """What :func:`build` wired; ``recovered`` is the rows the router
    held when it opened (0 for a resident one)."""

    router: ShardRouter
    engine: ShardedQueryEngine
    service: EngineQueryService
    recovered: int

    def close(self) -> None:
        self.engine.close()
        if isinstance(self.router, TieredShardRouter):
            self.router.close()

    def __enter__(self) -> "Stack":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build(
    config: StackConfig, bbox: BoundingBox, tuples: Optional[TupleBatch] = None
) -> Stack:
    """The stack ``config`` names over ``bbox``, holding ``tuples``
    unless its data directory already held rows."""
    grid = RegionGrid.for_shard_count(bbox, config.shards)
    if config.data_dir is None:
        router = ShardRouter(grid, h=config.h)
    else:
        router = TieredShardRouter(
            grid, h=config.h, data_dir=config.data_dir, memory_windows=config.memory_windows
        )
    try:
        recovered = router.global_count()
        if tuples is not None and not recovered:
            router.ingest(tuples)
        engine = ShardedQueryEngine(router, processes=config.processes)
    except BaseException:
        if isinstance(router, TieredShardRouter):
            router.close()
        raise
    registry = registry_for(engine) if config.subscriptions else None
    service = EngineQueryService(engine, method=config.method, subscriptions=registry)
    return Stack(router, engine, service, recovered)
