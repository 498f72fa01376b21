"""The unsharded engine: a ``ShardedQueryEngine`` over a one-region router.

There is one query engine; a store without region shards is a
:func:`~repro.storage.shards.single_shard_router`.  These helpers build
one over a tuple stream and grow it the way a live store grows — by
ingesting the rows it does not hold yet.
"""

from __future__ import annotations

from repro.data.tuples import TupleBatch
from repro.query.sharded import ShardedQueryEngine
from repro.server.async_server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router


def one_shard_engine(batch: TupleBatch, h: int = 240, **kwargs) -> ShardedQueryEngine:
    """A one-shard engine holding ``batch`` in windows of ``h`` tuples;
    ``kwargs`` go to :class:`ShardedQueryEngine`."""
    router = single_shard_router(h)
    router.ingest(batch)
    return ShardedQueryEngine(router, **kwargs)


def grow(engine: ShardedQueryEngine, batch: TupleBatch, hi: int) -> None:
    """Ingest rows ``[held, hi)`` of ``batch`` — the rows up to ``hi``
    that the engine's router does not hold yet."""
    router = engine.router
    router.ingest(batch.slice(router.global_count(), hi))


def protocol_service(h: int = 240, validity_horizon_s: float = 4 * 3600.0, **kwargs):
    """The paper's deployment, empty: the one front end answering the
    protocol over a one-shard engine with the cover cache's bound;
    ``kwargs`` go to :class:`ShardedQueryEngine`."""
    engine = ShardedQueryEngine(
        single_shard_router(h), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY, **kwargs
    )
    return EngineQueryService(
        engine, method="model-cover", validity_horizon_s=validity_horizon_s
    )
