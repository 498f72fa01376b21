"""The blocked exact gather: byte identity and memory discipline.

``PlanExecutor._run_merge`` walks each window's queries in blocks,
computes every op's distance tile in a per-thread workspace and sorts +
sums one block's hits at a time.  The contract: every output byte equals
what the whole-op unit computes — ``merge_hit_partials`` over one
``scan_hits`` / ``index_hits`` partial per op, which is also still the
process executor's wire path — for any shard count, block size, replica
split or source mix; and nothing proportional to the plan's hit count
is allocated on the way.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.pipeline import executor as pipeline_executor
from repro.query.pipeline import gather
from repro.query.pipeline.gather import (
    index_hits,
    index_pairs,
    merge_hit_partials,
    scan_hits,
    scan_pairs,
)
from repro.query.pipeline.plan import MergeOp, PlanReport
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter

BOUNDS = BoundingBox(0.0, 0.0, 3000.0, 2000.0)
RADIUS = 400.0
# Region-cell edges of the 1x2 and 2x2 grids over BOUNDS, plus points
# outside the box: where a tuple's owning shard flips.
EDGE_XS = np.array([0.0, 1500.0, 3000.0, -350.0, 3350.0])
EDGE_YS = np.array([0.0, 1000.0, 2000.0, -350.0, 2350.0])


def fingerprint(result):
    """NaN-stable byte identity of a BatchResult."""
    return (
        result.values.tobytes(),
        result.support.tobytes(),
        result.answered.tobytes(),
    )


def build_router(batch: TupleBatch, n_shards: int, h: int) -> ShardRouter:
    router = ShardRouter(RegionGrid.for_shard_count(BOUNDS, n_shards), h=h)
    step = max(len(batch) // 3, 1)
    for start in range(0, len(batch), step):
        router.ingest(batch.slice(start, min(start + step, len(batch))))
    return router


def whole_op_reference(engine: ShardedQueryEngine, plan):
    """One hit partial per op, one global merge: the unit the blocked
    gather replaced in process, over the very slices the plan pinned."""
    partials = []
    for op in plan.ops:
        _stamp, sub, gids = plan.binding.slice_for(op.context.shard, op.context.window_c)
        if op.method == "naive":
            probe, gid, vals = scan_hits(sub, gids, op.queries, engine.radius_m)
        else:
            proc = engine._index_processor(
                op.context.shard, op.context.window_c, op.method, op.context.stamp, sub
            )
            probe, gid, vals = index_hits(proc, gids, op.queries)
        partials.append((op.positions[probe], gid, vals))
    return merge_hit_partials(
        plan.merge.n_queries, plan.merge.n_stream_rows, partials, plan.queries
    )


def forced_block(queries_per_block, rows: int):
    """Patch the block budget to the cells of this many queries scanning
    a full window's ``rows`` (1: every query its own block; None: one
    block takes the whole batch).  Blocks after a plan's first may grow
    up to ``BLOCK_SCALE`` times that where hits are sparse."""
    cells = 2**62 if queries_per_block is None else queries_per_block * rows
    return mock.patch.object(gather, "BLOCK_CELLS", cells)


@st.composite
def scenarios(draw):
    """(tuples, queries): coordinates on cell edges, queries at exactly
    radius distance from a tuple, timestamps on window cuts, NaN sensor
    values, and — one draw in four — every tuple confined to one cell so
    the other shards' slices are empty."""
    n = draw(st.integers(min_value=1, max_value=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    tx = np.where(
        rng.random(n) < 0.5,
        rng.choice(EDGE_XS[:3], n),
        rng.uniform(BOUNDS.min_x, BOUNDS.max_x, n),
    )
    ty = np.where(
        rng.random(n) < 0.5,
        rng.choice(EDGE_YS[:3], n),
        rng.uniform(BOUNDS.min_y, BOUNDS.max_y, n),
    )
    if draw(st.integers(0, 3)) == 0:
        tx, ty = tx * 0.3, ty * 0.3  # all in the first cell
    tt = np.sort(rng.uniform(0.0, 86400.0, n))
    ts = rng.normal(400.0, 30.0, n)
    ts[rng.random(n) < 0.1] = np.nan
    batch = TupleBatch(tt, tx, ty, ts)

    nq = draw(st.integers(min_value=1, max_value=40))
    qx = rng.choice(EDGE_XS, nq)
    qy = rng.choice(EDGE_YS, nq)
    exact = rng.random(nq) < 0.34
    anchor = rng.integers(0, n, nq)
    qx = np.where(exact, tx[anchor] + RADIUS, qx)
    qy = np.where(exact, ty[anchor], qy)
    qt = np.where(
        rng.random(nq) < 0.5,
        tt[rng.integers(0, n, nq)],
        rng.uniform(0.0, 86400.0, nq),
    )
    return batch, QueryBatch(qt, qx, qy)


_SETTINGS = settings(max_examples=25, deadline=None)


class TestBlockedGatherMatchesWholeOpMerge:
    @_SETTINGS
    @given(
        scenario=scenarios(),
        n_shards=st.sampled_from([1, 2, 4]),
        h=st.sampled_from([1, 7, 2000]),
        per_block=st.sampled_from([1, 7, None]),
        prune=st.booleans(),
        replicas=st.booleans(),
    )
    def test_naive_sources(self, scenario, n_shards, h, per_block, prune, replicas):
        batch, queries = scenario
        router = build_router(batch, n_shards, h)
        with ShardedQueryEngine(
            router, radius_m=RADIUS, max_workers=1, prune=prune
        ) as engine:
            if replicas:
                engine.set_replicas({s: 3 for s in range(n_shards)})
            plan = engine.plan(queries, "naive")
            assert plan.merge is not None
            expected = fingerprint(whole_op_reference(engine, plan))
            with forced_block(per_block, min(h, len(batch))):
                assert fingerprint(engine.execute(plan)) == expected

    @_SETTINGS
    @given(
        scenario=scenarios(),
        n_shards=st.sampled_from([2, 4]),
        h=st.sampled_from([7, 2000]),
        per_block=st.sampled_from([1, 7, None]),
        pick=st.integers(0, 10**6),
    )
    def test_index_source_mixed_with_naive_sources(
        self, scenario, n_shards, h, per_block, pick
    ):
        # An index reports a query's rows in tree order, not stream
        # order: blocks it contributes to must take the sort, and land
        # on the same bytes as an all-naive plan.
        batch, queries = scenario
        router = build_router(batch, n_shards, h)
        with ShardedQueryEngine(router, radius_m=RADIUS, max_workers=1) as engine:
            plan = engine.plan(queries, "naive", prune=False)
            ops = list(plan.ops)
            ops[pick % len(ops)] = dataclasses.replace(
                ops[pick % len(ops)], method="rtree"
            )
            mixed = dataclasses.replace(plan, ops=tuple(ops))
            expected = fingerprint(whole_op_reference(engine, plan))
            assert fingerprint(whole_op_reference(engine, mixed)) == expected
            with forced_block(per_block, min(h, len(batch))):
                assert fingerprint(engine.execute(mixed)) == expected

    def test_heatmap_over_day_fixture_all_block_sizes(self, small_batch):
        router = ShardRouter(
            RegionGrid.for_shard_count(_covered(small_batch), 4), h=2000
        )
        router.ingest(small_batch)
        with ShardedQueryEngine(router, max_workers=1) as engine:
            probes = _heatmap_probes(small_batch, 20, 15)
            plan = engine.plan(probes, "naive")
            expected = fingerprint(whole_op_reference(engine, plan))
            for cells in (1, 1 << 12, 1 << 16, 2**62):
                with mock.patch.object(gather, "BLOCK_CELLS", cells):
                    assert fingerprint(engine.execute(plan)) == expected

    def test_stride_widens_past_an_under_read_row_counter(self, small_batch):
        # Under concurrent ingest a pinned gid can exceed the row counter
        # the plan read; the composite key must stay collision-free.
        batch = small_batch.slice(0, 600)
        router = build_router(batch, 4, h=200)
        with ShardedQueryEngine(router, radius_m=RADIUS, max_workers=1) as engine:
            queries = QueryBatch(
                batch.t[::9].copy(), batch.x[::9].copy(), batch.y[::9].copy()
            )
            plan = engine.plan(queries, "naive")
            expected = fingerprint(engine.execute(plan))
            stale = dataclasses.replace(plan, merge=MergeOp(len(queries), 1))
            assert fingerprint(engine.execute(stale)) == expected
            assert fingerprint(whole_op_reference(engine, stale)) == expected


class TestReplicaFolding:
    """In process a hot shard's replica ops are one scan again: same
    rows, the unsplit plan's queries, provably in order."""

    def _plans(self, engine, queries):
        binding = engine.binding()
        plain = engine.plan(queries, "naive", binding=binding)
        engine.set_replicas({s: 3 for s in range(engine.n_shards)})
        return plain, engine.plan(queries, "naive", binding=binding)

    def test_replica_ops_fold_back_into_the_unsplit_scans(self, small_batch):
        batch = small_batch.slice(0, 600)
        queries = QueryBatch(
            batch.t[::7].copy(), batch.x[::7].copy(), batch.y[::7].copy()
        )
        with ShardedQueryEngine(build_router(batch, 4, h=200), radius_m=RADIUS) as engine:
            plain, split = self._plans(engine, queries)
            assert len(split.ops) > len(plain.ops)
            folded = pipeline_executor._fold_replicas(split.ops, range(len(split.ops)))
            assert [i for members, _ in folded for i in members] == list(
                range(len(split.ops))
            )
            assert len(folded) == len(plain.ops)
            for (_, op), whole in zip(folded, plain.ops):
                assert op.context == whole.context
                np.testing.assert_array_equal(op.positions, whole.positions)
                for col in ("t", "x", "y"):
                    np.testing.assert_array_equal(
                        getattr(op.queries, col), getattr(whole.queries, col)
                    )

    def test_one_shard_with_replicas_never_sorts_and_charges_every_op(
        self, small_batch
    ):
        batch = small_batch.slice(0, 600)
        queries = QueryBatch(
            batch.t[::7].copy(), batch.x[::7].copy(), batch.y[::7].copy()
        )
        with ShardedQueryEngine(build_router(batch, 1, h=200), radius_m=RADIUS) as engine:
            plain, split = self._plans(engine, queries)
            seen = []

            def spy(keys, vals, in_order, *rest):
                seen.append((len(keys), in_order))
                return gather.reduce_hit_block(keys, vals, in_order, *rest)

            report = PlanReport()
            with mock.patch.object(pipeline_executor, "reduce_hit_block", spy):
                with forced_block(3, 200):  # blocks straddle replica chunks
                    result = engine.execute(split, report)
            assert fingerprint(result) == fingerprint(engine.execute(plain))
            assert seen and all(n <= 1 and in_order for n, in_order in seen)
            assert all(report.observed(op) is not None for op in split.ops)
            load = engine.router.shard_load_stats()[0]
            assert load.scan_queries == 2 * len(queries)  # split + plain runs


def test_block_budget_grows_for_sparse_plans_and_never_shrinks():
    base = gather.BLOCK_CELLS
    assert gather.block_budget(0, 0) == base  # nothing seen yet
    assert gather.block_budget(base, base) == base  # every cell a hit
    assert gather.block_budget(base, int(base * 0.3)) == pytest.approx(
        gather.BLOCK_HITS / 0.3, rel=0.01
    )  # a city-wide heatmap: about the base block
    assert gather.block_budget(base, base // 50) == gather.BLOCK_SCALE * base
    assert gather.block_budget(base, 0) == gather.BLOCK_SCALE * base


class TestPairKernels:
    def test_scan_pairs_is_the_naive_predicate_row_major(self, daytime_window):
        rng = np.random.default_rng(5)
        queries = QueryBatch(
            np.zeros(17), rng.uniform(0, 5000, 17), rng.uniform(0, 3300, 17)
        )
        w = daytime_window
        inside = (w.x[None, :] - queries.x[3:11, None]) ** 2 + (
            w.y[None, :] - queries.y[3:11, None]
        ) ** 2 <= 1000.0 * 1000.0
        qi, ti = scan_pairs(w, queries, 3, 11, 1000.0)
        eq, et = np.nonzero(inside)
        np.testing.assert_array_equal(qi, eq + 3)
        np.testing.assert_array_equal(ti, et)

    def test_index_pairs_hit_set_equals_scan_pairs(self, daytime_window):
        from repro.query.indexed import IndexedProcessor

        rng = np.random.default_rng(6)
        queries = QueryBatch(
            np.zeros(12), rng.uniform(0, 5000, 12), rng.uniform(0, 3300, 12)
        )
        proc = IndexedProcessor(daytime_window, kind="rtree", radius_m=1000.0)
        qi, ti = index_pairs(proc, queries, 2, 12)
        sq, st_ = scan_pairs(daytime_window, queries, 2, 12, 1000.0)
        assert np.all(np.diff(qi) >= 0)
        assert sorted(zip(qi.tolist(), ti.tolist())) == list(
            zip(sq.tolist(), st_.tolist())
        )

    def test_workspace_is_sized_to_the_largest_tile_needed(self, daytime_window):
        queries = QueryBatch(np.zeros(4), np.zeros(4), np.zeros(4))
        scan_pairs(daytime_window, queries, 0, 4, 10.0)
        cells = gather._workspace._cells
        assert cells >= 4 * len(daytime_window)
        scan_pairs(daytime_window, queries, 0, 1, 10.0)  # smaller: reused
        assert gather._workspace._cells == cells


def _covered(batch: TupleBatch) -> BoundingBox:
    return BoundingBox(batch.x.min(), batch.y.min(), batch.x.max(), batch.y.max())


def _heatmap_probes(batch: TupleBatch, nx: int, ny: int) -> QueryBatch:
    box = _covered(batch)
    return QueryBatch.from_grid(
        float(batch.t[len(batch) // 2]),
        box.min_x, box.min_y, box.width, box.height, nx, ny,
    )


def test_heatmap_allocates_nothing_proportional_to_hits(small_batch):
    """One 40x30 naive heatmap at h=2000 over four shards makes roughly
    a third of a million hits; materialised as triples that was 24.9 MB
    of traced allocations per request.  Blocked, the peak is the block's
    arrays plus the result (about 1 MB) — the guard sits at 6 MB so
    hit-proportional arrays cannot quietly return."""
    router = ShardRouter(RegionGrid.for_shard_count(_covered(small_batch), 4), h=2000)
    router.ingest(small_batch)
    with ShardedQueryEngine(router, max_workers=1) as engine:
        probes = _heatmap_probes(small_batch, 40, 30)  # mid-stream: a full window
        warm = engine.continuous_query_batch(probes, "naive")  # workspace grown
        assert int(warm.support.sum()) > 250_000
        tracemalloc.start()
        try:
            engine.continuous_query_batch(probes, "naive")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 6 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
