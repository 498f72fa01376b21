"""The snapshot binding's pin rule (``repro.query.pipeline.binding``).

A :class:`RouterBinding` is an exact snapshot: it reads ``(epoch E,
rows N, layout)`` under the router lock when it is built, and whatever a
writer ingests afterwards, every window it searches and every slice it
resolves is the router's state at ``E`` — a slice that grew since is
cut back to its gids below ``N`` and stamped ``E``.  Each case runs over
the resident and the segment store (``router_over``).
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.pipeline.binding import RouterBinding
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import StaleLayoutError

BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
H = 40
STORES = ("resident", "segment")


def make_stream(n: int, seed: int = 0) -> TupleBatch:
    rng = np.random.default_rng(seed)
    return TupleBatch(
        np.cumsum(rng.uniform(1.0, 30.0, n)),
        rng.uniform(0.0, 6000.0, n),
        rng.uniform(0.0, 4000.0, n),
        rng.uniform(350.0, 600.0, n),
    )


def grid(n_shards: int = 4) -> RegionGrid:
    return RegionGrid.for_shard_count(BOUNDS, n_shards)


def probes(stream: TupleBatch, n: int = 30, seed: int = 1) -> QueryBatch:
    rng = np.random.default_rng(seed)
    return QueryBatch(
        rng.uniform(float(stream.t[0]) - 50.0, float(stream.t[-1]) + 500.0, n),
        rng.uniform(0.0, 6000.0, n),
        rng.uniform(0.0, 4000.0, n),
    )


def same(a, b) -> None:
    np.testing.assert_array_equal(a.answered, b.answered)
    np.testing.assert_array_equal(a.support, b.support)
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("store", STORES)
class TestPin:
    def test_pin_is_the_routers_head(self, router_over, store):
        router = router_over(store, grid(), H)
        stream = make_stream(150)
        router.ingest(stream.slice(0, 70))
        router.ingest(stream.slice(70, 150))
        binding = RouterBinding(router)
        assert (binding.epoch, binding.rows, binding.layout_epoch) == router.head()
        assert (binding.epoch, binding.rows) == (2, 150)
        assert binding.stream_rows() == 150

    def test_grown_slice_is_cut_to_the_pinned_rows(self, router_over, store):
        router = router_over(store, grid(1), H)
        stream = make_stream(100)
        router.ingest(stream.slice(0, 90))
        binding = RouterBinding(router)
        router.ingest(stream.slice(90, 100))  # window 2 grows 10 -> 20 rows
        stamp, rows, gids = binding.slice_for(0, 2)
        assert stamp == binding.epoch == 1
        np.testing.assert_array_equal(gids, np.arange(80, 90))
        np.testing.assert_array_equal(rows.t, stream.t[80:90])
        # The live slice is the grown one, at the writer's epoch.
        live_stamp, live_rows, _ = router.snapshot_window(0, 2)
        assert live_stamp == 2 and len(live_rows) == 20

    def test_unchanged_slice_keeps_its_own_stamp(self, router_over, store):
        router = router_over(store, grid(1), H)
        stream = make_stream(100)
        router.ingest(stream.slice(0, 50))  # epoch 1: windows 0, 1
        router.ingest(stream.slice(50, 60))  # epoch 2: window 1 only
        binding = RouterBinding(router)
        router.ingest(stream.slice(60, 100))
        assert binding.slice_for(0, 0)[0] == 1
        assert binding.slice_for(0, 1)[0] == 2
        assert len(binding.slice_for(0, 1)[1]) == 20

    def test_slice_empty_at_the_pin_is_stamp_zero(self, router_over, store):
        router = router_over(store, grid(4), H)
        stream = make_stream(H)
        west = stream.x < 3000.0
        router.ingest(stream.select_mask(west))  # window 0, western shards
        binding = RouterBinding(router)
        router.ingest(
            TupleBatch(
                np.array([float(stream.t[-1]) + 1.0]),
                np.array([5500.0]),
                np.array([3500.0]),
                np.array([400.0]),
            )
        )
        east = int(router.grid.shards_of(np.array([5500.0]), np.array([3500.0]))[0])
        assert router.shard_window_epoch(east, 0) == 2
        assert binding.rows == int(west.sum()) < H  # still window 0
        stamp, rows, gids = binding.slice_for(east, 0)
        assert stamp == 0 and len(rows) == 0 and len(gids) == 0

    def test_windows_started_after_the_pin_are_never_searched(
        self, router_over, store
    ):
        router = router_over(store, grid(), H)
        stream = make_stream(200)
        router.ingest(stream.slice(0, 100))  # windows 0..2
        binding = RouterBinding(router)
        router.ingest(stream.slice(100, 200))  # windows 2..4
        ts = stream.t[[0, 50, 99, 120, 199]]
        assert binding.windows_for_times(ts).tolist() == [0, 1, 2, 2, 2]
        assert router.windows_for_times(ts).tolist() == [0, 1, 2, 3, 4]

    def test_cut_slice_sketch_covers_exactly_its_rows(self, router_over, store):
        router = router_over(store, grid(1), H)
        stream = make_stream(60)
        router.ingest(stream.slice(0, 50))
        binding = RouterBinding(router)
        router.ingest(stream.slice(50, 60))
        sketch = binding.sketch_for(0, 1)
        rows = stream.slice(40, 50)
        assert sketch.n_rows == 10
        assert (sketch.min_x, sketch.max_x) == (rows.x.min(), rows.x.max())
        assert (sketch.min_y, sketch.max_y) == (rows.y.min(), rows.y.max())


def test_layout_is_pinned_with_the_epoch(router_over):
    """A re-cut after the pin makes every fresh resolution stale (the
    segment store refuses re-cuts, so this runs on the resident one)."""
    router = router_over("resident", grid(4), H)
    router.ingest(make_stream(100))
    binding = RouterBinding(router)
    router.split_shard(0)
    assert router.head()[2] == binding.layout_epoch + 1
    with pytest.raises(StaleLayoutError):
        binding.slice_for(0, 0)


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("method", ["naive", "kdtree", "model-cover"])
def test_a_stale_binding_answers_its_prefix(router_over, store, method):
    """A plan built on a binding taken before more ingest answers exactly
    what an engine holding only the pinned prefix answers."""
    stream = make_stream(230, seed=3)
    router = router_over(store, grid(), H)
    router.ingest(stream.slice(0, 130))
    engine = ShardedQueryEngine(router, radius_m=900.0)
    binding = engine.binding()
    router.ingest(stream.slice(130, 230))
    queries = probes(stream.slice(0, 130))
    got = engine.execute(engine.plan(queries, method, binding=binding))
    fresh_router = router_over("resident", grid(), H)
    fresh_router.ingest(stream.slice(0, 130))
    want = ShardedQueryEngine(fresh_router, radius_m=900.0).continuous_query_batch(
        queries, method=method
    )
    same(got, want)


@pytest.mark.parametrize("store", STORES)
def test_cover_cached_at_a_cut_stamp_is_the_cut_rows_cover(router_over, store):
    """The stamp a cut slice carries names its content: a later live
    binding of the grown window misses it and fits the full rows."""
    stream = make_stream(70, seed=4)
    router = router_over(store, grid(1), H)
    router.ingest(stream.slice(0, 55))
    engine = ShardedQueryEngine(router)
    early = engine.binding()
    router.ingest(stream.slice(55, 70))
    t = float(stream.t[45])
    q = QueryBatch(np.array([t]), np.array([3000.0]), np.array([2000.0]))
    cut = engine.execute(engine.plan(q, "model-cover", binding=early))
    assert engine.processor_cache.entry_stamp(("cover", 0, 1)) == early.epoch
    full = engine.continuous_query_batch(q, method="model-cover")
    assert engine.processor_cache.entry_stamp(("cover", 0, 1)) == router.epoch
    prefix = router_over("resident", grid(1), H)
    prefix.ingest(stream.slice(0, 55))
    same(cut, ShardedQueryEngine(prefix).continuous_query_batch(q, method="model-cover"))
    whole = router_over("resident", grid(1), H)
    whole.ingest(stream)
    same(full, ShardedQueryEngine(whole).continuous_query_batch(q, method="model-cover"))


@pytest.mark.parametrize("store", STORES)
def test_sealed_at_pin_prunes_without_resolving(router_over, store):
    """A window sealed at the pin prunes on its frozen sketch: nothing is
    resolved (and the segment store faults nothing in)."""
    stream = make_stream(200, seed=5)
    router = router_over(store, grid(), H)
    router.ingest(stream)
    binding = RouterBinding(router)
    faults = getattr(router, "faults", 0)
    sketch = binding.sketch_for(1, 0)
    assert sketch is router.shard_window_sketch(1, 0)
    assert not binding._memo
    assert getattr(router, "faults", 0) == faults


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("method", ["naive", "model-cover"])
def test_bindings_under_a_racing_writer_answer_their_prefix(
    router_over, store, method
):
    stream = make_stream(400, seed=6)
    router = router_over(store, grid(), H)
    router.ingest(stream.slice(0, 100))
    engine = ShardedQueryEngine(router, radius_m=900.0)
    queries = probes(stream.slice(0, 100), n=12)
    seen = []

    def write():
        for lo in range(100, 400, 25):
            router.ingest(stream.slice(lo, lo + 25))

    writer = threading.Thread(target=write)
    writer.start()
    while writer.is_alive() or not seen:
        binding = engine.binding()
        result = engine.execute(engine.plan(queries, method, binding=binding))
        seen.append((binding.rows, result))
    writer.join()
    references = {}
    for rows, result in seen:
        if rows not in references:
            prefix = router_over("resident", grid(), H)
            prefix.ingest(stream.slice(0, rows))
            references[rows] = ShardedQueryEngine(
                prefix, radius_m=900.0
            ).continuous_query_batch(queries, method=method)
        same(result, references[rows])


@pytest.mark.parametrize("store", STORES)
def test_threads_racing_on_one_binding_share_every_pinned_slice(router_over, store):
    """The memo takes no lock: threads that resolve one slice at once may
    each read it, and every one of them returns the entry that landed
    first.  Eight threads over every (shard, window) of a binding, in
    their own orders, with a writer growing the open window and a short
    switch interval, five times: each key's slice and sketch are one
    object for all of them, and the slice holds the pinned rows only."""
    stream = make_stream(600, seed=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            router = router_over(store, grid(), H)
            router.ingest(stream.slice(0, 430))  # the last window open at the pin
            _race_one_binding(router, stream, seed=round_)
    finally:
        sys.setswitchinterval(interval)


def _race_one_binding(router, stream, seed: int) -> None:
    binding = RouterBinding(router)
    keys = [(s, c) for c in range(-(-430 // H)) for s in range(binding.n_shards)]
    barrier = threading.Barrier(9)
    got = [None] * 8

    def read(k: int) -> None:
        order = keys[:]
        random.Random(seed * 8 + k).shuffle(order)
        barrier.wait(30.0)
        got[k] = {
            key: (binding.slice_for(*key), binding.sketch_for(*key)) for key in order
        }

    def write() -> None:
        barrier.wait(30.0)
        for lo in range(430, 600, 10):
            router.ingest(stream.slice(lo, lo + 10))

    threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
    threads.append(threading.Thread(target=write))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert not any(thread.is_alive() for thread in threads)
    for key in keys:
        bound, sketch = got[0][key]
        assert bound is binding._memo[key]
        assert all(seen[key][0] is bound and seen[key][1] is sketch for seen in got)
        assert len(bound[2]) == 0 or int(bound[2][-1]) < 430
