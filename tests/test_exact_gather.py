"""The blocked exact gather: byte identity and memory discipline.

``PlanExecutor._run_merge`` walks each window's queries in blocks, in
one of two ways it picks per window: *row groups* — queries that scan
the same naive sources, over those sources' rows merged in stream
order, summed as the tile reports them — or the *keyed* window, whose
hit pairs are keyed and sorted per block (sparse many-source
windows).  The contract: every output byte equals what the whole-op
reference computes (``tests/reference_gather.py``:
``merge_hit_partials`` over one ``scan_hits`` partial per op) for any
shard count, block size, source mix or side of that choice; the same
holds range by range when the plan is cut into the sub-plans the
process executor ships to its workers, wherever the cuts fall; and
nothing proportional to the plan's hit count is allocated on the way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pickle
import sys
import threading
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
from repro.query.pipeline import gather, parallel
from repro.query.pipeline.gather import scan_pairs
from repro.query.pipeline.plan import MergeOp, PlanContext, PlanReport
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter

from reference_gather import merge_hit_partials, scan_hits

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
        probe, gid, vals = scan_hits(sub, gids, op.queries, engine.radius_m)
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


# Queries nothing can answer: NaN / ±inf coordinates (no distance
# compares true) and a point no disk reaches (a pruned plan gives it no
# source at all).
UNANSWERABLE = np.array(
    [[np.nan, 1000.0], [1500.0, np.nan], [np.inf, 1000.0], [1500.0, -np.inf], [1e7, 1e7]]
)


@st.composite
def scenarios(draw, max_queries=40, unanswerable=False):
    """(tuples, queries): coordinates on cell edges, queries at exactly
    radius distance from a tuple, timestamps on window cuts, NaN sensor
    values, and — one draw in four — every tuple confined to one cell so
    the other shards' slices are empty.  With ``unanswerable``, every
    other draw also overwrites a few queries with :data:`UNANSWERABLE`
    coordinates."""
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

    nq = draw(st.integers(min_value=1, max_value=max_queries))
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
    if unanswerable and draw(st.booleans()):
        at = rng.integers(0, nq, min(nq, 4))
        qx[at], qy[at] = UNANSWERABLE[rng.integers(0, len(UNANSWERABLE), len(at))].T
    return batch, QueryBatch(qt, qx, qy)


def with_hazards(plan, hazards):
    """The plan with things the builders never emit but a binding can
    hold: ``"stale_counter"`` — a row counter read before the pinned
    rows arrived, so pinned gids lie beyond ``n_stream_rows``;
    ``"empty_slice"`` — per window, one more scan whose pinned slice has
    no rows (the builders skip those), where the layout has one."""
    ops, merge = list(plan.ops), plan.merge
    if "stale_counter" in hazards:
        merge = MergeOp(merge.n_queries, 1)
    if "empty_slice" in hazards:
        for op in {op.context.window_c: op for op in plan.ops}.values():
            c = op.context.window_c
            for s in range(plan.binding.n_shards):
                if not len(plan.binding.slice_for(s, c)[2]):
                    ops.append(
                        dataclasses.replace(op, context=PlanContext(c, s, 0, 0))
                    )
                    break
    return dataclasses.replace(plan, ops=tuple(ops), merge=merge)


def seventy_two_sources():
    """(router, queries, rows): 72 shards, three rows each, one window."""
    grid = RegionGrid.for_shard_count(BOUNDS, 72)
    rng = np.random.default_rng(72)
    cells = rng.permutation(np.repeat(np.arange(72), 3))
    w, h = BOUNDS.width / grid.nx, BOUNDS.height / grid.ny
    batch = TupleBatch(
        np.arange(len(cells), dtype=np.float64),
        (cells % grid.nx + rng.random(len(cells))) * w,
        (cells // grid.nx + rng.random(len(cells))) * h,
        rng.normal(400.0, 30.0, len(cells)),
    )
    router = ShardRouter(grid, h=len(cells))
    router.ingest(batch)
    queries = QueryBatch(
        np.full(80, 10.0), rng.uniform(0, 3000, 80), rng.uniform(0, 2000, 80)
    )
    return router, queries, len(cells)


def ragged_from(min_windows):
    """Gather plans of this many windows or more as one ragged tile
    (None: never)."""
    return mock.patch.object(
        pipeline_executor,
        "MIN_RAGGED_WINDOWS",
        10**9 if min_windows is None else min_windows,
    )


@contextlib.contextmanager
def ragged_tiles():
    """Yields the query count of every ragged tile scanned meanwhile."""
    tiles = []
    real = gather.scan_ragged_tile

    def tile(*args):
        tiles.append(len(args[3]))
        return real(*args)

    with mock.patch.object(gather, "scan_ragged_tile", tile):
        yield tiles


_SETTINGS = settings(max_examples=25, deadline=None)


class TestBlockedGatherMatchesWholeOpMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        scenario=scenarios(max_queries=80, unanswerable=True),
        n_shards=st.sampled_from([1, 2, 4, 9]),
        h=st.sampled_from([1, 7, 2000]),
        per_block=st.sampled_from([1, 7, None]),
        min_group=st.sampled_from([1, 32]),
        min_windows=st.sampled_from([1, 3, None]),
        prune=st.booleans(),
        hazards=st.sets(st.sampled_from(["stale_counter", "empty_slice"])),
    )
    def test_naive_sources(
        self, scenario, n_shards, h, per_block, min_group, min_windows, prune, hazards
    ):
        # Both sides of the per-window choice: one source (its own
        # group), windows that fit one block (merged whole: per_block
        # None), source-set groups (min_group 1, or >= 32 queries a
        # set) and the keyed window (sparser than that) — over queries
        # no source scans, NaN / ±inf query coordinates, empty pinned
        # slices and an under-read row counter; and a plan whose windows
        # fit one block as one ragged tile (from one window on, from
        # three, or never).
        batch, queries = scenario
        router = build_router(batch, n_shards, h)
        with ShardedQueryEngine(
            router, radius_m=RADIUS
        ) as engine, np.errstate(all="ignore"):
            plan = with_hazards(engine.plan(queries, "naive", prune=prune), hazards)
            assert plan.merge is not None
            expected = fingerprint(whole_op_reference(engine, plan))
            with forced_block(per_block, min(h, len(batch))), mock.patch.object(
                pipeline_executor, "MIN_GROUP_QUERIES", min_group
            ), ragged_from(min_windows):
                assert fingerprint(engine.execute(plan)) == expected

    @pytest.mark.parametrize("min_group", [1, 32])
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("per_block", [1, None])
    def test_more_sources_than_a_64_bit_mask(self, per_block, prune, min_group):
        # 72 non-empty slices in one window: a source-set cannot be a
        # 64-bit mask.  Unpruned, every query scans all 72 (one set, 72
        # slices merged); pruned, each disk reaches a handful (many
        # small sets: merged while they fit a block, or the keyed window).
        router, queries, n_rows = seventy_two_sources()
        with ShardedQueryEngine(router, radius_m=RADIUS) as engine:
            plan = engine.plan(queries, "naive", prune=prune)
            assert len({op.context.shard for op in plan.ops}) == 72
            expected = fingerprint(whole_op_reference(engine, plan))
            assert int(np.frombuffer(expected[1], dtype=np.int64).sum()) > 0
            with forced_block(per_block, n_rows), mock.patch.object(
                pipeline_executor, "MIN_GROUP_QUERIES", min_group
            ):
                assert fingerprint(engine.execute(plan)) == expected

    def test_heatmap_over_day_fixture_all_block_sizes(self, small_batch):
        router = ShardRouter(
            RegionGrid.for_shard_count(_covered(small_batch), 4), h=2000
        )
        router.ingest(small_batch)
        with ShardedQueryEngine(router) as engine:
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
        with ShardedQueryEngine(router, radius_m=RADIUS) as engine:
            queries = QueryBatch(
                batch.t[::9].copy(), batch.x[::9].copy(), batch.y[::9].copy()
            )
            plan = engine.plan(queries, "naive")
            expected = fingerprint(engine.execute(plan))
            stale = dataclasses.replace(plan, merge=MergeOp(len(queries), 1))
            assert fingerprint(engine.execute(stale)) == expected
            assert fingerprint(whole_op_reference(engine, stale)) == expected


def run_cut(engine: ShardedQueryEngine, plan, cuts):
    """``plan`` answered as the sub-plans the process executor ships for
    these cut points — here, one after the other, with no pool: the
    parent's cut, a worker's sub-plan over a plain binding of the pinned
    slices, an executor at the engine's radius, request and reply
    through pickle."""
    edges = sorted({0, plan.n_queries, *(min(cut, plan.n_queries) for cut in cuts)})
    parts = []
    for lo, hi in zip(edges, edges[1:]):
        coords, n_stream_rows, ops = parallel._cut(plan, lo, hi)
        binding = parallel._WorkerBinding()
        specs = []
        for op, positions in ops:
            s, c = op.context.shard, op.context.window_c
            binding[s, c] = plan.binding.slice_for(s, c)
            specs.append((op.context, positions))
        request = pickle.loads(pickle.dumps((coords, n_stream_rows, specs)))
        result = pipeline_executor.PlanExecutor(engine.radius_m).execute(
            parallel._sub_plan(binding, *request)
        )
        parts.append(pickle.loads(pickle.dumps(fingerprint(result))))
    return tuple(b"".join(column) for column in zip(*parts))


class TestSubPlansConcatenateToTheWholePlan:
    """A query's answer reads nothing of any other query's: wherever a
    merge-shaped plan is cut, its sub-plans' answers laid end to end are
    the whole plan's bytes (and the reference's)."""

    @settings(max_examples=60, deadline=None)
    @given(
        scenario=scenarios(max_queries=80, unanswerable=True),
        n_shards=st.sampled_from([1, 2, 4, 9]),
        h=st.sampled_from([1, 7, 2000]),
        per_block=st.sampled_from([1, 7, None]),
        prune=st.booleans(),
        stale_counter=st.booleans(),
        cuts=st.lists(st.integers(0, 80), max_size=7),
        min_windows=st.sampled_from([1, 3, None]),
    )
    def test_any_cut_points(
        self, scenario, n_shards, h, per_block, prune, stale_counter, cuts, min_windows
    ):
        # One source (n_shards 1), a few dense ones (h 2000: every shard
        # a window-long slice), a route over many windows (h 1 or 7), a
        # query a pruned plan gives no source, and a pinned gid beyond
        # the row counter.
        batch, queries = scenario
        router = build_router(batch, n_shards, h)
        with ShardedQueryEngine(
            router, radius_m=RADIUS
        ) as engine, np.errstate(all="ignore"):
            plan = engine.plan(queries, "naive", prune=prune)
            if stale_counter:
                plan = with_hazards(plan, {"stale_counter"})
            expected = fingerprint(whole_op_reference(engine, plan))
            with forced_block(per_block, min(h, len(batch))), ragged_from(min_windows):
                assert fingerprint(engine.execute(plan)) == expected
                assert run_cut(engine, plan, cuts) == expected

    @_SETTINGS
    @given(prune=st.booleans(), cuts=st.lists(st.integers(0, 80), max_size=7))
    def test_any_cut_points_over_72_sources(self, prune, cuts):
        router, queries, _n_rows = seventy_two_sources()
        with ShardedQueryEngine(router, radius_m=RADIUS) as engine:
            plan = engine.plan(queries, "naive", prune=prune)
            assert len({op.context.shard for op in plan.ops}) == 72
            expected = fingerprint(whole_op_reference(engine, plan))
            assert run_cut(engine, plan, cuts) == expected


class TestRowGroupsNeedNoKeys:
    def test_four_shard_heatmap_never_keys_or_sorts_hits_and_charges_every_op(
        self, small_batch
    ):
        # Cells cut at the median position, so all four hold rows.
        cx, cy = np.median(small_batch.x), np.median(small_batch.y)
        rx, ry = np.abs(small_batch.x - cx).max(), np.abs(small_batch.y - cy).max()
        quadrants = RegionGrid(BoundingBox(cx - rx, cy - ry, cx + rx, cy + ry), nx=2, ny=2)
        router = ShardRouter(quadrants, h=2000)
        router.ingest(small_batch)
        with ShardedQueryEngine(router) as engine:
            probes = _heatmap_probes(small_batch, 40, 30)  # one full window
            plan = engine.plan(probes, "naive")
            assert len({op.context.window_c for op in plan.ops}) == 1
            assert len({op.context.shard for op in plan.ops}) == 4
            expected = fingerprint(whole_op_reference(engine, plan))

            # A clock that advances one second per reading: a tile, read
            # before and after, takes exactly one; merging a group's rows
            # is made to take a hundred.
            now = [0.0]

            def tick():
                now[0] += 1.0
                return now[0]

            tiles, axis_tiles, merges = [], [], []
            real_tile, real_merge = gather.scan_tile, gather.merged_rows
            real_axis_tile = gather.scan_axis_tile

            def tile(*args):
                tiles.append(len(args[2]))
                return real_tile(*args)

            def axis_tile(*args):
                axis_tiles.append(len(args[3]))
                return real_axis_tile(*args)

            def merge(bounds):
                merges.append(len(bounds))
                now[0] += 100.0
                return real_merge(bounds)

            report = PlanReport()
            with keyless() as sorted_sizes, mock.patch.object(
                pipeline_executor, "time", mock.Mock(perf_counter=tick)
            ), mock.patch.object(gather, "scan_tile", tile), mock.patch.object(
                gather, "scan_axis_tile", axis_tile
            ), mock.patch.object(gather, "merged_rows", merge):
                result = engine.execute(plan, report)
            assert fingerprint(result) == expected
            assert int(result.support.sum()) > 100_000
            # Several source-sets, each merged once; what is sorted is
            # rows and queries, never hits.
            assert len(merges) > 1 and max(merges) == 4
            assert sorted_sizes and max(sorted_sizes) <= max(2000, len(probes))
            # A grid's probes share coordinates: most of its tiles are
            # taken from axis tables.
            assert sum(axis_tiles) > sum(tiles)
            tiles += axis_tiles
            # The tiles' seconds (axis tables included), all of them and
            # nothing else, are on the ops' clocks; preparation is on
            # the gather's.
            scanned = np.unique(np.concatenate([op.positions for op in plan.ops]))
            assert sum(tiles) == len(scanned)  # every query in exactly one tile
            assert len(tiles) > len(merges)
            assert sum(report.elapsed_s.values()) == pytest.approx(len(tiles))
            assert all(report.observed(op) > 0 for op in plan.ops)
            assert report.gather_s >= 100.0 * len(merges)
            # Each member op reaches the report and the load tracker.
            assert set(report.elapsed_s) == {id(op) for op in plan.ops}
            loads = engine.router.shard_load_stats()
            for s, load in enumerate(loads):
                assert load.scan_queries == sum(
                    len(op.queries) for op in plan.ops if op.context.shard == s
                )
            assert sum(load.scan_seconds for load in loads) == pytest.approx(len(tiles))


@contextlib.contextmanager
def keyless():
    """Fail the moment a window is gathered by keys or a block is
    sorted; yields the lengths of everything ``np.argsort`` is given
    meanwhile (row merges and query grouping — never hits)."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("this plan needs no composite keys")

    sizes = []
    real = np.argsort

    def argsort(a, *args, **kwargs):
        sizes.append(len(a))
        return real(a, *args, **kwargs)

    with mock.patch.object(pipeline_executor, "_KeyedWindow", refuse), mock.patch.object(
        pipeline_executor, "reduce_hit_block", refuse
    ), mock.patch.object(np, "argsort", argsort):
        yield sizes


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

    def test_workspace_is_sized_to_the_largest_tile_needed(self, daytime_window):
        queries = QueryBatch(np.zeros(4), np.zeros(4), np.zeros(4))
        scan_pairs(daytime_window, queries, 0, 4, 10.0)
        ws = gather._spare[-1]  # returned last: the next scan takes it
        cells = ws._cells
        assert cells >= 4 * len(daytime_window)
        scan_pairs(daytime_window, queries, 0, 1, 10.0)  # smaller: reused
        assert gather._spare[-1] is ws and ws._cells == cells

    def test_workspaces_number_the_gathers_at_once_not_the_threads(
        self, daytime_window
    ):
        queries = QueryBatch(np.zeros(4), np.zeros(4), np.zeros(4))
        scan_pairs(daytime_window, queries, 0, 4, 10.0)
        spares = list(gather._spare)
        for _ in range(3):  # one thread after another: the same workspace
            worker = threading.Thread(
                target=scan_pairs, args=(daytime_window, queries, 0, 4, 10.0)
            )
            worker.start()
            worker.join()
        assert gather._spare == spares
        with gather.workspace() as a, gather.workspace() as b:  # two at once
            assert a is not b
            assert a not in gather._spare and b not in gather._spare
        assert a in gather._spare and b in gather._spare

    def test_concurrent_gathers_never_share_a_workspace(self, daytime_window):
        # More threads than cores, switching every microsecond: a
        # workspace handed to two scans at once would show as a claim
        # seen twice or as a tile written under another's hits.
        w = daytime_window
        rng = np.random.default_rng(8)
        qx, qy = rng.uniform(0, 5000, 24), rng.uniform(0, 3300, 24)
        expected = gather.scan_tile(w.x, w.y, qx, qy, 1000.0).copy()
        claimed, errors = set(), []

        def run():
            try:
                for _ in range(200):
                    with gather.workspace() as ws:
                        if id(ws) in claimed:
                            errors.append("workspace handed out twice")
                        claimed.add(id(ws))
                        hits = gather.scan_tile(w.x, w.y, qx, qy, 1000.0, ws)
                        claimed.discard(id(ws))
                    if not np.array_equal(hits, expected):
                        errors.append("tile corrupted")
                    spare_hits = gather.scan_tile(w.x, w.y, qx, qy, 1000.0)
                    if not np.array_equal(spare_hits, expected):
                        errors.append("spare tile corrupted")
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(repr(exc))

        spares = len(gather._spare)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert len(gather._spare) <= spares + len(workers)  # one per scan at once


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
    with ShardedQueryEngine(router) as engine:
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

