"""The lanes' ``("rows", c)`` entries, seen from a test.

A model-cover answer at a pinned binding caches the rows of every
window an empty owner was answered in (``window_rows``, which pins every
slice of the window); an event-loop query of an empty owner declines
until its window's rows are cached at their live stamps.  These helpers
tell which windows a batch's empty owners lack entries for, and cache
one the way the pinned path does.
"""

from __future__ import annotations

from typing import List

from repro.query.base import QueryBatch
from repro.query.sharded import ShardedQueryEngine, window_rows


def rows_cached(engine: ShardedQueryEngine, c: int) -> bool:
    """Whether window ``c``'s rows are cached at their live stamps."""
    router = engine.router
    live = max(router.shard_window_epoch(s, c) for s in range(router.n_shards))
    return engine.rows_cache.peek(("rows", c), live) is not None


def uncached_windows(engine: ShardedQueryEngine, batch: QueryBatch) -> List[int]:
    """The windows of ``batch``'s empty owners whose rows are not cached
    at their live stamps: the lane declines ``batch`` iff there is one
    (for a batch under the lane's row and cell bounds whose covers are
    cached)."""
    router = engine.router
    windows = router.windows_for_times(batch.t).tolist()
    owners = router.grid.shards_of(batch.x, batch.y).tolist()
    empty = {c for s, c in zip(owners, windows) if not router.shard_window_epoch(s, c)}
    return sorted(c for c in empty if not rows_cached(engine, c))


def cache_rows(engine: ShardedQueryEngine, c: int) -> None:
    """Cache window ``c``'s rows as the pinned path does (on a segment
    store this faults the window's slices in)."""
    window_rows(engine.rows_cache, engine.binding(), c)
