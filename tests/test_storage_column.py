"""Tests for the shard column (``repro.storage.shards._ShardColumn``).

Both window stores keep their in-memory rows in it: the resident store
holds each shard's whole stream there, the tiered store its open tail
(re-seeded with the kept rows at every seal).  Each case runs over both
through one reader: ``shard_column`` for the resident store, the tail
column itself for the tiered one — in both a lock-free read.

The writer-vs-reader case runs under ``pytest-timeout`` in CI's
concurrency job.
"""

import threading
import time

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.storage.shards import ShardRouter, _NumericColumn, _ShardColumn
from repro.storage.tiered import TieredShardRouter

BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
STORES = ("resident", "tiered")


def make_stream(n: int, seed: int = 0) -> TupleBatch:
    rng = np.random.default_rng(seed)
    return TupleBatch(
        np.arange(n, dtype=np.float64),
        rng.uniform(0.0, 6000.0, n),
        rng.uniform(0.0, 4000.0, n),
        rng.uniform(350.0, 600.0, n),
    )


@pytest.fixture()
def open_store(tmp_path):
    """``open_store(kind, h, n_shards=1)`` -> ``(router, read)``, where
    ``read(s)`` is the lock-free ``(rows, gids)`` read of shard ``s``'s
    in-memory column."""
    opened = []

    def make(kind: str, h: int, n_shards: int = 1):
        grid = RegionGrid.for_shard_count(BOUNDS, n_shards)
        if kind == "resident":
            router = ShardRouter(grid, h=h)
            return router, router.shard_column
        router = TieredShardRouter(
            grid, h=h, data_dir=tmp_path / f"tier{len(opened)}", wal_sync=False
        )
        opened.append(router)
        return router, lambda s: router._store._tails[s].rows()

    yield make
    for router in opened:
        router.close()


def _owned(rows: TupleBatch, gids: np.ndarray):
    return [col.copy() for col in (rows.t, rows.x, rows.y, rows.s, gids)]


def _assert_pair_equals(rows: TupleBatch, gids: np.ndarray, owned) -> None:
    for got, want in zip((rows.t, rows.x, rows.y, rows.s, gids), owned):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", STORES)
class TestPinnedPair:
    def test_pinned_pair_survives_ingest_and_reallocation(self, open_store, kind):
        # h past the whole stream: the tiered tail never seals here, so
        # both columns grow through the same buffer reallocations.
        router, read = open_store(kind, h=1 << 16)
        stream = make_stream(30_000, seed=1)
        router.ingest(stream.slice(0, 1_000))
        rows, gids = read(0)
        owned = _owned(rows, gids)
        for start in range(1_000, len(stream), 7_000):
            router.ingest(stream.slice(start, min(start + 7_000, len(stream))))
        fresh_rows, fresh_gids = read(0)
        assert len(fresh_rows) == len(stream)
        # At least one reallocation moved the column off the pinned buffer.
        assert not np.shares_memory(fresh_rows.t, rows.t)
        assert not np.shares_memory(fresh_gids, gids)
        _assert_pair_equals(rows, gids, owned)
        assert not rows.t.flags.writeable and not gids.flags.writeable

    def test_read_is_zero_copy_and_cached(self, open_store, kind):
        router, read = open_store(kind, h=1 << 16)
        router.ingest(make_stream(500, seed=2))
        rows, gids = read(0)
        assert read(0)[0] is rows
        for col in (rows.t, rows.x, rows.y, rows.s, gids):
            assert col.flags.c_contiguous
        assert gids.dtype == np.int64
        assert np.array_equal(gids, np.arange(500))


class _SpyColumn(_NumericColumn):
    """A column that calls ``after_extend`` once its values are written."""

    __slots__ = ("after_extend",)

    def extend(self, values):
        super().extend(values)
        self.after_extend()


class TestColumnAlone:
    def test_empty_column_reads_as_empty_pair(self):
        rows, gids = _ShardColumn().rows()
        assert len(rows) == 0 and len(gids) == 0
        assert rows.t.dtype == np.float64 and gids.dtype == np.int64

    def test_append_advances_the_count_last(self):
        """With all five columns written but the count not yet advanced,
        a read still returns exactly the previously committed pair."""
        column = _ShardColumn()
        spy = _SpyColumn(np.dtype(np.int64))
        column._columns = column._columns[:4] + (spy,)
        stream = make_stream(10, seed=6)
        seen = []
        spy.after_extend = lambda: seen.append(column.rows())
        column.append(stream.slice(0, 4), np.arange(4))
        column.append(stream.slice(4, 10), np.arange(4, 10))
        assert [len(rows) for rows, _ in seen] == [0, 4]
        assert [len(gids) for _, gids in seen] == [0, 4]
        _assert_pair_equals(*seen[1], _owned(stream.slice(0, 4), np.arange(4)))
        rows, gids = column.rows()
        _assert_pair_equals(rows, gids, _owned(stream, np.arange(10)))

    def test_reads_after_each_append_never_concatenate(self, monkeypatch):
        """A read after an append costs no copy of the stream so far: no
        part list is re-joined, however many appends came before."""
        column = _ShardColumn()
        stream = make_stream(2_000, seed=7)

        def no_concatenate(*args, **kwargs):
            raise AssertionError("np.concatenate called on the read path")

        monkeypatch.setattr(np, "concatenate", no_concatenate)
        for start in range(0, len(stream), 10):
            column.append(stream.slice(start, start + 10), np.arange(start, start + 10))
            rows, gids = column.rows()
            assert len(rows) == len(gids) == start + 10
        monkeypatch.undo()
        _assert_pair_equals(rows, gids, _owned(stream, np.arange(len(stream))))

    def test_gids_are_stored_as_int64(self):
        column = _ShardColumn()
        column.append(make_stream(5, seed=8), np.arange(3, 8, dtype=np.int32))
        gids = column.rows()[1]
        assert gids.dtype == np.int64
        assert gids.tolist() == [3, 4, 5, 6, 7]

    def test_empty_append_keeps_the_cached_pair(self):
        column = _ShardColumn()
        column.append(make_stream(5, seed=9), np.arange(5))
        pair = column.rows()
        column.append(TupleBatch.empty(), np.empty(0, dtype=np.int64))
        assert column.rows() is pair


@pytest.mark.parametrize("kind", STORES)
class TestStoreColumns:
    def test_fresh_store_reads_empty_pairs(self, open_store, kind):
        router, read = open_store(kind, h=240, n_shards=4)
        for s in range(4):
            rows, gids = read(s)
            assert len(rows) == 0 and len(gids) == 0
            assert gids.dtype == np.int64

    def test_shard_columns_partition_the_stream(self, open_store, kind):
        """Before any seal, the shards' columns together hold every row
        once, each under its own gid and in the shard owning its
        position."""
        router, read = open_store(kind, h=1 << 16, n_shards=4)
        stream = make_stream(4_000, seed=10)
        for start in range(0, len(stream), 333):
            router.ingest(stream.slice(start, min(start + 333, len(stream))))
        all_gids = []
        for s in range(4):
            rows, gids = read(s)
            assert (np.diff(gids) > 0).all()
            want = stream.take(gids)
            for name in ("t", "x", "y", "s"):
                assert getattr(rows, name).tobytes() == getattr(want, name).tobytes()
            assert (router.grid.shards_of(rows.x, rows.y) == s).all()
            all_gids.append(gids)
        assert np.array_equal(np.sort(np.concatenate(all_gids)), np.arange(len(stream)))

    def test_every_column_of_a_read_is_read_only(self, open_store, kind):
        router, read = open_store(kind, h=1 << 16)
        router.ingest(make_stream(100, seed=11))
        rows, gids = read(0)
        for col in (rows.t, rows.x, rows.y, rows.s, gids):
            with pytest.raises(ValueError):
                col[0] = 0


@pytest.mark.parametrize("kind", STORES)
def test_free_running_writer_and_lockfree_reader_agree(open_store, kind):
    """Every lock-free read under a free-running writer is a coherent
    prefix: as many gids as rows, gids strictly increasing, and the rows
    exactly the reference stream's at those gids.  The writer is capped,
    so the test's size does not depend on how fast the reader runs."""
    router, read = open_store(kind, h=240)
    chunk, max_chunks = 7, 3_000
    stream = make_stream(chunk * max_chunks, seed=3)
    done, errors = threading.Event(), []

    def writer():
        try:
            for i in range(max_chunks):
                router.ingest(stream.slice(i * chunk, (i + 1) * chunk))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            done.set()

    thread = threading.Thread(target=writer)
    thread.start()
    reads = 0
    try:
        while not done.is_set() or reads == 0:
            rows, gids = read(0)
            n = len(rows)
            assert len(gids) == n
            assert n == 0 or (np.diff(gids) > 0).all()
            if kind == "resident":
                assert n == 0 or gids[0] == 0
            want = stream.take(gids)
            for name in ("t", "x", "y", "s"):
                assert getattr(rows, name).tobytes() == getattr(want, name).tobytes()
            reads += 1
            # Hand the interpreter back: the tiered writer blocks in file
            # I/O, and a spinning reader would make it wait out a whole
            # switch interval for the lock after every WAL append.
            time.sleep(0)
    finally:
        thread.join(timeout=60.0)
    assert not errors
    assert reads > 0
    assert router.global_count() == len(stream)


def test_recut_shares_untouched_columns_and_keeps_pinned_pairs():
    """A split rebuilds only the split shard's column: every other slot
    keeps its column object, and pairs pinned before the re-cut (split
    shard included) are unchanged.  Resident only — a durable layout
    refuses re-cuts."""
    router = ShardRouter(RegionGrid.for_shard_count(BOUNDS, 4), h=240)
    stream = make_stream(5_000, seed=4)
    router.ingest(stream)
    before = list(router._store._columns)
    pinned = [router.shard_column(s) for s in range(4)]
    owned = [_owned(*pair) for pair in pinned]
    new_ids = router.split_shard(0)
    after = router._store._columns
    for s in range(1, 4):
        assert after[s] is before[s]
        assert router.shard_column(s)[0] is pinned[s][0]
    assert after[0] is not before[0]
    for (rows, gids), want in zip(pinned, owned):
        _assert_pair_equals(rows, gids, want)
    # The split shard's rows moved to its sub-tiles, gids intact.
    moved = np.sort(np.concatenate([router.shard_column(t)[1] for t in new_ids]))
    assert moved.tobytes() == pinned[0][1].tobytes()


def test_tiered_tail_equals_resident_slice_after_seal(open_store):
    """After every seal the re-seeded tail serves each open window's
    slice exactly as the resident store does."""
    h, n_shards = 240, 4
    resident, _ = open_store("resident", h=h, n_shards=n_shards)
    tiered, _ = open_store("tiered", h=h, n_shards=n_shards)
    stream = make_stream(3_000, seed=5)
    seals = 0
    for start in range(0, len(stream), 97):
        batch = stream.slice(start, min(start + 97, len(stream)))
        resident.ingest(batch)
        before = tiered.sealed_window_count()
        tiered.ingest(batch)
        if tiered.sealed_window_count() == before:
            continue
        seals += 1
        for c in range(tiered.sealed_window_count(), tiered.global_window_count()):
            for s in range(n_shards):
                want = resident.snapshot_window(s, c)
                got = tiered.snapshot_window(s, c)
                assert got[0] == want[0]
                for name in ("t", "x", "y", "s"):
                    assert getattr(got[1], name).tobytes() == getattr(want[1], name).tobytes()
                assert got[2].tobytes() == want[2].tobytes()
    assert seals >= 10


def _tails(router):
    return [tail.rows() for tail in router._store._tails]


def test_seal_keeps_only_unsealed_rows_in_the_tail(open_store):
    """After a seal the tails hold exactly the rows past the last sealed
    window, each shard's tail starting at its sealed-row base."""
    h, n_shards = 240, 4
    router, _ = open_store("tiered", h=h, n_shards=n_shards)
    stream = make_stream(1_000, seed=12)
    for start in range(0, len(stream), 100):
        router.ingest(stream.slice(start, start + 100))
    assert router.sealed_window_count() == 4
    store = router._store
    tails = _tails(router)
    for s, (rows, gids) in enumerate(tails):
        assert len(rows) == router.shard_counts()[s] - store._tail_base[s]
    gids = np.sort(np.concatenate([gids for _, gids in tails]))
    assert np.array_equal(gids, np.arange(4 * h, len(stream)))


def test_reopen_rebuilds_the_tail_from_the_wal(tmp_path):
    """The open tail exists only in the WAL; a reopen rebuilds every
    shard's tail column byte for byte."""
    grid = RegionGrid.for_shard_count(BOUNDS, 4)
    router = TieredShardRouter(grid, h=240, data_dir=tmp_path / "tier", wal_sync=False)
    stream = make_stream(1_100, seed=13)
    for start in range(0, len(stream), 100):
        router.ingest(stream.slice(start, start + 100))
    before = [_owned(rows, gids) for rows, gids in _tails(router)]
    router.close()
    with TieredShardRouter.open(tmp_path / "tier", wal_sync=False) as again:
        assert again.sealed_window_count() == 4
        after = _tails(again)
        assert len(after) == len(before)
        for (rows, gids), want in zip(after, before):
            _assert_pair_equals(rows, gids, want)


def test_merge_shares_untouched_columns_and_keeps_pinned_pairs():
    """Re-merging a split cell rebuilds only the surviving tile's
    column, in gid order; other slots keep theirs, and pairs pinned
    before the merge are unchanged."""
    router = ShardRouter(RegionGrid.for_shard_count(BOUNDS, 4), h=240)
    stream = make_stream(5_000, seed=14)
    router.ingest(stream)
    tiles = router.split_shard(0)
    n_slots = len(router._store._columns)
    before = list(router._store._columns)
    pinned = [router.shard_column(s) for s in range(n_slots)]
    owned = [_owned(*pair) for pair in pinned]
    keep = router.merge_cell(router.grid.cell_of_shard(0))
    after = router._store._columns
    for s in range(n_slots):
        if s not in tiles:
            assert after[s] is before[s]
    for (rows, gids), want in zip(pinned, owned):
        _assert_pair_equals(rows, gids, want)
    rows, gids = router.shard_column(keep)
    want_gids = np.sort(np.concatenate([pinned[t][1] for t in tiles]))
    assert gids.tobytes() == want_gids.tobytes()
    want = stream.take(gids)
    for name in ("t", "x", "y", "s"):
        assert getattr(rows, name).tobytes() == getattr(want, name).tobytes()
