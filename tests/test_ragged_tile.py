"""One ragged tile per plan: the exact gather of a many-window plan.

A merge-shaped plan whose windows are three or more, all naive scans,
and together fit one block (``gather.BLOCK_CELLS``) is gathered as one
tile (``executor._ragged_tile``): every window's slices merged once in
stream order, each query scanning only its own window's rows
(``gather.scan_ragged_tile``), one ``nonzero`` and one ``reduceat``
(``gather.reduce_ragged_block``).  The contract: the bytes of the
per-window gather and of the whole-op reference, on every store and
layout a binding can hand it; the rule that picks it is structural;
its scan seconds reach the ops by their cells; and it allocates nothing
per cell.  ``test_exact_gather.py`` runs its oracles over ragged plans
too.
"""

from __future__ import annotations

import dataclasses
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.pipeline import executor as pipeline_executor
from repro.query.pipeline import gather
from repro.query.pipeline.plan import PlanReport
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter
from repro.storage.tiered import TieredShardRouter

from test_exact_gather import (
    BOUNDS,
    RADIUS,
    _covered,
    fingerprint,
    ragged_from,
    ragged_tiles,
    scenarios,
    whole_op_reference,
    with_hazards,
)


def _ragged_eligible(plan) -> bool:
    """Whether the executor must gather ``plan`` as one ragged tile:
    three windows or more whose slices have rows, every op a naive
    scan, and every window's union tile together inside one block."""
    rows, width = {}, {}
    for op in plan.ops:
        n = len(plan.binding.slice_for(op.context.shard, op.context.window_c)[2])
        if n:
            c = op.context.window_c
            rows[c] = rows.get(c, 0) + n
            width.setdefault(c, set()).update(op.positions.tolist())
    cells = sum(rows[c] * len(width[c]) for c in rows)
    naive = all(op.method == "naive" for op in plan.ops)
    return naive and len(rows) >= 3 and cells <= gather.BLOCK_CELLS


class TestRaggedTileMatchesPerWindowGather:
    """A plan of three windows or more that fits one block is gathered
    as one ragged tile: the same bytes as window by window, on every
    store and layout the binding can hand it."""

    @settings(max_examples=60, deadline=None)
    @given(
        scenario=scenarios(max_queries=80, unanswerable=True),
        n_shards=st.sampled_from([1, 4]),
        h=st.sampled_from([1, 7, 40]),
        store=st.sampled_from(["resident", "segment"]),
        prune=st.booleans(),
        hazard=st.sampled_from([None, "empty_slice", "cut_at_pin", "recut"]),
    )
    def test_same_bytes_as_the_per_window_gather(
        self, scenario, n_shards, h, store, prune, hazard
    ):
        # Segment stores fault most slices in from their packs (two
        # resident windows); "cut_at_pin" pins the binding before the
        # last third of the stream arrives, so the open window is cut
        # back to the pin; "recut" splits a shard (a resident layout
        # only: a durable one cannot be re-cut).
        batch, queries = scenario
        if hazard == "recut":
            store = "resident"
        grid = RegionGrid.for_shard_count(BOUNDS, n_shards)
        with tempfile.TemporaryDirectory() as tmp:
            if store == "segment":
                router = TieredShardRouter(grid, h=h, data_dir=tmp, memory_windows=2)
            else:
                router = ShardRouter(grid, h=h)
            try:
                pinned = len(batch) if hazard != "cut_at_pin" else 2 * len(batch) // 3
                router.ingest(batch.slice(0, max(pinned, 1)))
                if hazard == "recut":
                    router.split_shard(0)
                with ShardedQueryEngine(
                    router, radius_m=RADIUS, max_workers=1, prune=prune
                ) as engine, np.errstate(all="ignore"):
                    binding = engine.binding()
                    if max(pinned, 1) < len(batch):
                        router.ingest(batch.slice(max(pinned, 1), len(batch)))
                    plan = engine.plan(queries, "naive", binding=binding)
                    if hazard == "empty_slice":
                        plan = with_hazards(plan, {"empty_slice"})
                    with ragged_tiles() as tiles:
                        got = fingerprint(engine.execute(plan))
                    with ragged_from(None):
                        assert fingerprint(engine.execute(plan)) == got
                    assert fingerprint(whole_op_reference(engine, plan)) == got
                    assert len(tiles) == int(_ragged_eligible(plan))
            finally:
                if store == "segment":
                    router.close()


def _route(batch: TupleBatch, router: ShardRouter, windows, per_window: int, seed=9):
    """``per_window`` queries at times inside each of ``windows``, at
    sensed positions, time-sorted."""
    rng = np.random.default_rng(seed)
    t, x, y = [], [], []
    for c in windows:
        rows = rng.integers(c * router.h, (c + 1) * router.h, per_window)
        t.append(np.sort(batch.t[rows]))
        x.append(batch.x[rows] + rng.normal(0.0, 30.0, per_window))
        y.append(batch.y[rows] + rng.normal(0.0, 30.0, per_window))
    return QueryBatch(*(np.concatenate(col) for col in (t, x, y)))


class TestWhichPlansAreOneRaggedTile:
    @pytest.mark.parametrize("n_windows, ragged", [(1, False), (2, False), (3, True), (9, True)])
    def test_a_plan_spans_three_windows_or_more(self, small_batch, n_windows, ragged):
        # One window (a heatmap) or two (most fallback and maintenance
        # plans) keep the per-window gather.
        router = ShardRouter(RegionGrid.for_shard_count(_covered(small_batch), 4), h=240)
        router.ingest(small_batch)
        route = _route(small_batch, router, range(5, 5 + n_windows), 6)
        with ShardedQueryEngine(router, max_workers=1) as engine, ragged_tiles() as tiles:
            result = engine.continuous_query_batch(route, "naive")
        assert int(result.support.sum()) > 0
        assert tiles == ([len(route)] if ragged else [])

    def test_a_plan_over_one_block_keeps_the_per_window_gather(self, small_batch):
        router = ShardRouter(RegionGrid.for_shard_count(_covered(small_batch), 4), h=240)
        router.ingest(small_batch)
        route = _route(small_batch, router, range(3, 8), 40)  # 5 x 40 x 240 cells
        with ShardedQueryEngine(router, max_workers=1) as engine:
            plan = engine.plan(route, "naive", prune=False)
            with ragged_tiles() as tiles:
                engine.execute(plan)
            assert tiles == []
            with mock.patch.object(gather, "BLOCK_CELLS", 2**20), ragged_tiles() as tiles:
                engine.execute(plan)
            assert tiles == [len(route)]

    def test_an_index_source_keeps_the_per_window_gather(self, small_batch):
        router = ShardRouter(RegionGrid.for_shard_count(_covered(small_batch), 4), h=240)
        router.ingest(small_batch)
        route = _route(small_batch, router, range(5, 10), 6)
        with ShardedQueryEngine(router, max_workers=1) as engine:
            plan = engine.plan(route, "naive")
            ops = list(plan.ops)
            ops[1] = dataclasses.replace(ops[1], method="rtree")
            mixed = dataclasses.replace(plan, ops=tuple(ops))
            with ragged_tiles() as tiles:
                got = fingerprint(engine.execute(mixed))
            assert tiles == []
            assert got == fingerprint(engine.execute(plan))

    def test_the_tiles_seconds_go_to_its_ops_by_their_cells(self, small_batch):
        router = ShardRouter(RegionGrid.for_shard_count(_covered(small_batch), 4), h=240)
        router.ingest(small_batch)
        route = _route(small_batch, router, range(5, 12), 8)
        with ShardedQueryEngine(router, max_workers=1) as engine:
            plan = engine.plan(route, "naive")
            now = [0.0]

            def tick():  # one second per reading
                now[0] += 1.0
                return now[0]

            report = PlanReport()
            with mock.patch.object(
                pipeline_executor, "time", mock.Mock(perf_counter=tick)
            ), ragged_tiles() as tiles:
                engine.execute(plan, report)
            assert tiles == [len(route)]
            # The scan is read once before and once after: one second,
            # shared by the ops in proportion to their rows x queries.
            cells = np.array(
                [len(op.queries) * op.context.n_rows for op in plan.ops], dtype=float
            )
            observed = np.array([report.observed(op) for op in plan.ops])
            np.testing.assert_allclose(observed, cells / cells.sum())
            assert report.gather_s == pytest.approx(2.0)  # set-up and the reduce
            loads = engine.router.shard_load_stats()
            for s, load in enumerate(loads):
                assert load.scan_queries == sum(
                    len(op.queries) for op in plan.ops if op.context.shard == s
                )
            assert sum(load.scan_seconds for load in loads) == pytest.approx(1.0)


def test_a_route_allocates_nothing_per_cell(small_batch):
    """A many-window route gathered as one ragged tile takes its
    distances and comparisons from the gather workspace: once the
    workspace has grown, a plan of ~29 K cells, whose float tile alone
    would be 230 KB, peaks at ~100 KB — its rows, its few hits, the
    plan, and the buffers numpy's iterator takes for a broadcast
    subtract over one 60 x 60 window block."""
    router = ShardRouter(RegionGrid.for_shard_count(_covered(small_batch), 4), h=60)
    router.ingest(small_batch)
    route = _route(small_batch, router, range(40, 48), 60)  # 8 x 60 x 60 cells
    with ShardedQueryEngine(router, radius_m=40.0, max_workers=1) as engine:
        plan = engine.plan(route, "naive", prune=False)
        with ragged_tiles() as tiles:
            warm = engine.execute(plan)  # workspace grown
        assert tiles == [len(route)] and int(warm.support.sum()) > 0
        tracemalloc.start()
        try:
            engine.execute(plan)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 160 * 2**10, f"traced peak {peak / 2**10:.0f} KiB"
