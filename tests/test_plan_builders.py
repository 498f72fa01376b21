"""The sharded plan builders against their reference.

``repro.query.pipeline.executor`` writes a sharded plan in one
vectorised pruning pass; ``tests/reference_plans.py`` keeps the
per-(window, shard) Python loops it replaced.  For random batches the
two must write the same plan — every op's context, positions and
query bytes, the pruned records *in the same order*,
the ``format_plan`` text and the kept/pruned counts — and must ask the
binding for the same things: per call kind the same ``(shard, window)``
sequence, the same slices pinned in the same order within the sealed
and within the open windows, and on a durable tier the same number of
segment fault-ins.  That last part is what pins "pruned planning never
faults a cold window in".

What the one-pass builder does change is the interleaving *between*
call kinds: it reads every reached candidate's sketch before it
resolves the first kept slice, where the loop alternated.  A sealed
window's sketch read touches neither the router lock nor the LRU, and
an open window's slice is pinned at its first touch either way, so no
answer, stamp or fault count can tell the two orders apart — the
assertions below are exactly the ones that could.

Both builders run over their own router, fed the same sequence of
requests, so stateful parts (the LRU of a ``memory_windows=1`` tier)
stay in step — and a divergence shows up as a failed fault comparison
on a later example.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_plans import reference_cover_groups, reference_sharded_plan
from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.pipeline.binding import RouterBinding
from repro.query.pipeline.executor import build_sharded_plan
from repro.query.pipeline.plan import format_plan
from repro.query.sharded import SHARDED_METHODS, cover_runs
from repro.storage.shards import ShardRouter
from repro.storage.tiered import TieredShardRouter

BOUNDS = BoundingBox(0.0, 0.0, 3000.0, 2000.0)
RADIUS = 400.0
H = 60
N_ROWS = 10 * H + 25  # ten sealed windows and an open one

LAYOUTS = ("static", "split", "merged", "tiered")


def make_stream() -> TupleBatch:
    """A time-sorted stream, half of it packed into one corner cell so
    other (shard, window) slices are empty or far from most queries."""
    rng = np.random.default_rng(20)
    hot = rng.random(N_ROWS) < 0.5
    x = np.where(hot, rng.uniform(0.0, 900.0, N_ROWS), rng.uniform(0.0, 3000.0, N_ROWS))
    y = np.where(hot, rng.uniform(0.0, 700.0, N_ROWS), rng.uniform(0.0, 2000.0, N_ROWS))
    t = np.sort(rng.uniform(0.0, 86_400.0, N_ROWS))
    return TupleBatch(t, x, y, rng.normal(400.0, 30.0, N_ROWS))


def make_router(layout: str, data_dir):
    grid = RegionGrid(BOUNDS, nx=2, ny=2)
    if layout == "tiered":
        router = TieredShardRouter(
            grid, h=H, data_dir=data_dir, memory_windows=1, wal_sync=False
        )
    else:
        router = ShardRouter(grid, h=H)
    stream = make_stream()
    for lo in range(0, N_ROWS, 100):
        router.ingest(stream.slice(lo, min(lo + 100, N_ROWS)))
    if layout in ("split", "merged"):
        hot = int(np.argmax(router.shard_counts()))
        router.split_shard(hot)
        if layout == "merged":
            # Split a second cell, merge the first back: the layout now
            # has retired slots (holes) between live shard ids.
            other = int(np.argmax([
                0 if router.grid.cell_of_shard(s) == router.grid.cell_of_shard(hot)
                else n for s, n in enumerate(router.shard_counts())
            ]))
            router.split_shard(other)
            router.merge_cell(router.grid.cell_of_shard(hot))
    return router


class RecordingBinding(RouterBinding):
    """A router binding that logs what a plan builder asks it for."""

    def __init__(self, router) -> None:
        super().__init__(router)
        self.calls = []
        self.pins = []

    def sketch_for(self, shard, c):
        self.calls.append(("sketch_for", shard, int(c)))
        return super().sketch_for(shard, c)

    def slice_for(self, shard, c):
        self.calls.append(("slice_for", shard, int(c)))
        return super().slice_for(shard, c)

    def peek(self, shard, c):
        self.calls.append(("peek", shard, int(c)))
        return super().peek(shard, c)

    def peek_window(self, c):
        self.calls.append(("peek_window", None, int(c)))
        return super().peek_window(c)

    def _resolve(self, shard, c):
        self.pins.append((shard, int(c)))
        return super()._resolve(shard, c)


class Side:
    """One builder with its own router."""

    def __init__(self, builder, layout: str, data_dir) -> None:
        self.builder = builder
        self.router = make_router(layout, data_dir)

    def build(self, queries, method, prune):
        binding = RecordingBinding(self.router)
        faults = getattr(self.router, "faults", 0)
        plan = self.builder(binding, queries, method, RADIUS, prune=prune)
        return plan, binding, getattr(self.router, "faults", 0) - faults

    def close(self) -> None:
        if hasattr(self.router, "close"):
            self.router.close()


@pytest.fixture(scope="module", params=LAYOUTS)
def sides(request, tmp_path_factory):
    pair = [
        Side(builder, request.param, tmp_path_factory.mktemp("plans"))
        for builder in (build_sharded_plan, reference_sharded_plan)
    ]
    yield pair
    for side in pair:
        side.close()


def describe(plan):
    """Everything a plan says, in comparable form (arrays as bytes)."""
    ops = []
    for op in plan.ops:
        for column in (op.queries.t, op.queries.x, op.queries.y):
            assert column.dtype == np.float64 and column.ndim == 1
            assert not column.flags.writeable
        ops.append(
            (
                type(op).__name__, op.context, op.emit,
                op.positions.dtype.str, op.positions.tobytes(),
                op.queries.t.tobytes(), op.queries.x.tobytes(), op.queries.y.tobytes(),
            )
        )
    return (
        plan.method, plan.merge, ops, plan.pruned,
        plan.ops_kept, plan.ops_pruned,
    )


def assert_same_runs(sides, queries):
    """A model-cover plan is its binding, queries and method, built with
    no binding call; the route lane groups its queries by (window,
    owner) as the reference loops do, each group in stream order."""
    new, _ref = sides
    plan, binding, faults = new.build(queries, "model-cover", True)
    assert (plan.ops, plan.pruned, plan.merge, binding.calls, faults) == ((), (), None, [], 0)
    assert plan.queries is queries and plan.method == "model-cover"
    if not len(queries):
        return
    grid = binding.grid
    order, runs = cover_runs(
        binding.windows_for_times(queries.t), grid.shards_of(queries.x, queries.y), grid.n_regions
    )
    got = [(c, s, order[lo:hi].tobytes()) for c, s, lo, hi in runs]
    want = [(c, s, at.tobytes()) for c, s, at in reference_cover_groups(binding, queries)]
    assert got == want


def assert_same_plan(sides, queries, method, prune):
    if method == "model-cover":
        return assert_same_runs(sides, queries)
    new, ref = sides
    args = (queries, method, prune)
    plan, binding, faults = new.build(*args)
    if not len(queries):
        # The reference cannot take an empty batch through every grid's
        # geometry mask; the plan of no queries is no ops, no calls.
        assert (plan.ops, plan.pruned, binding.calls) == ((), (), [])
        assert plan.merge is None or plan.merge.n_queries == 0
        return
    ref_plan, ref_binding, ref_faults = ref.build(*args)

    assert describe(plan) == describe(ref_plan)
    assert format_plan(plan) == format_plan(ref_plan)

    assert faults == ref_faults
    for kind in ("sketch_for", "slice_for", "peek", "peek_window"):
        assert [call for call in binding.calls if call[0] == kind] == [
            call for call in ref_binding.calls if call[0] == kind
        ], kind
    sealed = new.router.global_count() // H
    for tier in (True, False):
        assert [p for p in binding.pins if (p[1] < sealed) == tier] == [
            p for p in ref_binding.pins if (p[1] < sealed) == tier
        ]
    if prune:
        # Every slice resolved ends up in an op: an unreached or
        # sketch-pruned (shard, window) was never pinned, never read.
        kept = {(op.context.shard, op.context.window_c) for op in plan.ops}
        assert set(binding.pins) <= kept | {
            p for p in binding.pins if p[1] >= sealed  # open: pinned with sketch
        }


@st.composite
def batches(draw):
    """Query batches: unsorted and duplicate times, coordinates on cell
    edges and outside the bounding box; empty, single and heatmap-sized."""
    n = draw(st.sampled_from([0, 1, 1, 2, 7, 40, 60, 200, 1200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    stream = make_stream()
    t = rng.uniform(-3600.0, 90_000.0, n)
    if n and draw(st.booleans()):
        t = stream.t[rng.integers(0, N_ROWS, n)]  # on window cuts, duplicated
    if draw(st.booleans()):
        t = np.sort(t)
    if n > 1 and draw(st.booleans()):
        t[:] = t[0]  # one window: the heatmap shape
    edges_x = np.array([0.0, 750.0, 1500.0, 2250.0, 3000.0, -350.0, 3350.0])
    edges_y = np.array([0.0, 500.0, 1000.0, 1500.0, 2000.0, -350.0, 2350.0])
    on_edge = rng.random(n) < 0.3
    x = np.where(on_edge, rng.choice(edges_x, n), rng.uniform(-600.0, 3600.0, n))
    y = np.where(on_edge, rng.choice(edges_y, n), rng.uniform(-600.0, 2600.0, n))
    if n and draw(st.booleans()):
        # Exactly the radius away from a stored row: the sketch boundary.
        anchor = rng.integers(0, N_ROWS, n)
        at = rng.random(n) < 0.3
        x = np.where(at, stream.x[anchor] + RADIUS, x)
        y = np.where(at, stream.y[anchor], y)
    return QueryBatch(t, x, y)


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


class TestBuildersMatchReference:
    @_SETTINGS
    @given(
        queries=batches(),
        method=st.sampled_from(SHARDED_METHODS),
        prune=st.booleans(),
    )
    def test_same_plan_same_calls(self, sides, queries, method, prune):
        assert_same_plan(sides, queries, method, prune)

    @pytest.mark.parametrize("method", SHARDED_METHODS)
    def test_route_over_every_window(self, sides, method):
        """The ``cold_route`` shape: 60 updates along a line, in time
        order, under every method the engine serves."""
        stream = make_stream()
        t = np.linspace(stream.t[0], stream.t[-1], 60)
        queries = QueryBatch(t, np.linspace(100.0, 2900.0, 60), np.linspace(1900.0, 100.0, 60))
        for prune in (True, False):
            assert_same_plan(sides, queries, method, prune)

    def test_pruned_tiered_plan_faults_only_kept_slices(self, tmp_path):
        side = Side(build_sharded_plan, "tiered", tmp_path)
        try:
            far = QueryBatch(
                make_stream().t[::50].copy(), np.full(13, 2900.0), np.full(13, 1900.0)
            )
            plan, binding, faults = side.build(far, "naive", True)
            assert plan.ops_pruned
            sealed = side.router.global_count() // H
            kept_sealed = {
                (op.context.shard, op.context.window_c)
                for op in plan.ops
                if op.context.window_c < sealed
            }
            assert faults <= len(kept_sealed)
            assert {p for p in binding.pins if p[1] < sealed} == kept_sealed
        finally:
            side.close()
