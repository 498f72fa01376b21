"""A route's rows merged once for the whole plan.

The ragged tile takes every kept slice of a many-window plan and merges
them with one concatenation and one stable argsort of their gids
(:func:`~repro.query.pipeline.gather.merged_rows` over the plan's
bounds).  Windows are disjoint gid ranges of the stream, so that merge
is window-major stream order: window by window, exactly what merging
each window's slices on its own gives.  Held here on 1 and 4 shards,
pruned and unpruned plans, slices with no rows, and a re-cut layout.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.region import RegionGrid
from repro.query.pipeline import gather
from repro.query.pipeline import executor as pipeline_executor
from repro.query.sharded import ShardedQueryEngine, shard_runtime
from repro.storage.shards import ShardRouter

from test_exact_gather import BOUNDS, RADIUS, scenarios


def _columns(xys):
    return tuple(np.asarray(column).tobytes() for column in xys)


def _by_window(bounds_of):
    """Per window (ascending), its bounds' rows merged on their own."""
    parts = [gather.merged_rows(bounds) for _c, bounds in sorted(bounds_of.items())]
    return tuple(np.concatenate([part[k] for part in parts]) for k in range(3))


class TestOneMergeIsWindowMajor:
    @settings(max_examples=80, deadline=None)
    @given(
        scenario=scenarios(max_queries=60),
        n_shards=st.sampled_from([1, 4]),
        h=st.sampled_from([3, 10, 40]),
        prune=st.booleans(),
        empties=st.booleans(),
        recut=st.booleans(),
    )
    def test_equals_the_per_window_merge(
        self, scenario, n_shards, h, prune, empties, recut
    ):
        batch, queries = scenario
        router = ShardRouter(RegionGrid.for_shard_count(BOUNDS, n_shards), h=h)
        router.ingest(batch)
        if recut:
            router.split_shard(0)
        with ShardedQueryEngine(router, radius_m=RADIUS, prune=prune) as engine:
            plan = engine.plan(queries, "naive")
            binding = plan.binding
            op_bounds_of = {}
            for op in plan.ops:
                c = op.context.window_c
                op_bounds_of.setdefault(c, []).append(
                    binding.slice_for(op.context.shard, c)
                )
            bounds_of = op_bounds_of
            if empties:
                # Every shard's slice of each window, the empty ones too.
                bounds_of = {
                    c: [binding.slice_for(s, c) for s in range(binding.n_shards)]
                    for c in bounds_of
                }
            if not bounds_of:
                return
            bounds = [bound for _c, per in sorted(bounds_of.items()) for bound in per]
            merged = gather.merged_rows(bounds)
            assert _columns(merged) == _columns(_by_window(bounds_of))
            gids = np.concatenate([bound[2] for bound in bounds])
            assert np.all(np.diff(np.sort(gids)) > 0)  # disjoint, every row once

            # The ragged tile of the plan holds exactly these rows.
            runtime = shard_runtime(binding, engine.processor_cache, RADIUS)
            tile = pipeline_executor._ragged_tile(runtime, plan.ops, plan.queries)
            if tile is not None:
                kept = {
                    c: [b for b in per if len(b[2])] for c, per in op_bounds_of.items()
                }
                assert _columns((tile.x, tile.y, tile.s)) == _columns(
                    _by_window({c: per for c, per in kept.items() if per})
                )
