"""Embedded storage.

The EnviroMeter architecture (Figure 1) stores the sensed stream
(``raw_tuples``) and one model cover per window.  This package holds
the stream: region shards of growable in-memory columns behind a
:class:`ShardRouter`, and a durable tier of segment packs, a WAL and a
manifest behind :class:`TieredShardRouter` — no external DB dependency.
A window's fitted cover lives in the query engine's epoch-keyed
processor cache, not here.  See ``README.md`` in this package for the
layout and the sealed-window immutability contract.
"""

from repro.storage.shards import ShardRouter, single_shard_router
from repro.storage.tiered import TieredShardRouter

__all__ = [
    "ShardRouter",
    "TieredShardRouter",
    "single_shard_router",
]
