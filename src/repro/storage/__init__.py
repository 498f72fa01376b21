"""Embedded storage engine.

The EnviroMeter architecture (Figure 1) stores sensed data in a database
with two tables: ``raw_tuples`` (the sensed measurements) and
``model_cover`` (the serialized models per window).  This package holds
that stream: region shards of growable in-memory columns behind a
:class:`ShardRouter`, and a durable tier of segment packs, a WAL and a
manifest behind :class:`TieredShardRouter` — no external DB dependency.
:class:`Database` is the single-node relational store the paper's
server keeps its covers in.  See ``README.md`` in this package for the
layout and the sealed-window immutability contract.
"""

from repro.storage.engine import Database
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.shards import ShardRouter, single_shard_router
from repro.storage.table import Table
from repro.storage.tiered import TieredShardRouter

__all__ = [
    "Database",
    "ShardRouter",
    "TieredShardRouter",
    "single_shard_router",
    "Column",
    "ColumnType",
    "Schema",
    "Table",
]
