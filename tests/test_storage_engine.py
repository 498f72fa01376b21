"""Tests for repro.storage.engine."""

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.storage.engine import Database
from repro.storage.schema import ColumnType, Schema


class TestTableManagement:
    def test_create_and_get(self):
        db = Database()
        db.create_table("a", Schema.of(("x", ColumnType.FLOAT64)))
        assert db.has_table("a")
        assert db.table("a").name == "a"

    def test_duplicate_rejected(self):
        db = Database()
        db.create_table("a", Schema.of(("x", ColumnType.FLOAT64)))
        with pytest.raises(ValueError):
            db.create_table("a", Schema.of(("x", ColumnType.FLOAT64)))

    def test_missing_table(self):
        with pytest.raises(KeyError):
            Database().table("nope")

    def test_drop(self):
        db = Database()
        db.create_table("a", Schema.of(("x", ColumnType.FLOAT64)))
        db.drop_table("a")
        assert not db.has_table("a")
        with pytest.raises(KeyError):
            db.drop_table("a")

    def test_table_names_sorted(self):
        db = Database()
        for name in ("zeta", "alpha"):
            db.create_table(name, Schema.of(("x", ColumnType.FLOAT64)))
        assert db.table_names() == ("alpha", "zeta")


class TestEnviroMeterSchema:
    def test_figure1_tables(self):
        db = Database.for_enviro_meter()
        assert db.has_table("raw_tuples")
        assert db.has_table("model_cover")

    def test_ingest_and_read_back(self):
        db = Database.for_enviro_meter()
        batch = TupleBatch([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0])
        assert db.ingest_tuples(batch) == 2
        out = db.raw_tuples()
        assert np.array_equal(out.t, batch.t)
        assert np.array_equal(out.s, batch.s)

    def test_ingest_appends(self):
        db = Database.for_enviro_meter()
        batch = TupleBatch([1.0], [1.0], [1.0], [1.0])
        db.ingest_tuples(batch)
        db.ingest_tuples(batch)
        assert len(db.raw_tuples()) == 2


class TestCoverBlobs:
    def test_latest_none_when_empty(self):
        db = Database.for_enviro_meter()
        assert db.latest_cover_blob() is None
        assert db.cover_blob_for_window(0) is None

    def test_store_and_fetch_latest(self):
        db = Database.for_enviro_meter()
        db.store_cover_blob(0, 100.0, b"first")
        db.store_cover_blob(1, 200.0, b"second")
        window_c, valid_until, blob = db.latest_cover_blob()
        assert (window_c, valid_until, blob) == (1, 200.0, b"second")

    def test_fetch_for_window_takes_newest(self):
        db = Database.for_enviro_meter()
        db.store_cover_blob(3, 100.0, b"old")
        db.store_cover_blob(3, 150.0, b"new")
        _, valid_until, blob = db.cover_blob_for_window(3)
        assert blob == b"new"
        assert valid_until == 150.0

    def test_fetch_unknown_window(self):
        db = Database.for_enviro_meter()
        db.store_cover_blob(1, 100.0, b"x")
        assert db.cover_blob_for_window(2) is None

    def test_newest_cover_per_window(self):
        db = Database.for_enviro_meter()
        db.store_cover_blob(0, 10.0, b"a")
        db.store_cover_blob(1, 20.0, b"b")
        db.store_cover_blob(0, 30.0, b"c")
        assert db.cover_blob_for_window(0) == (0, 30.0, b"c")
        assert db.cover_blob_for_window(1) == (1, 20.0, b"b")
        assert db.latest_cover_blob() == (0, 30.0, b"c")

    def test_drop_model_cover_clears_index(self):
        db = Database.for_enviro_meter()
        db.store_cover_blob(0, 10.0, b"a")
        db.drop_table("model_cover")
        assert db.cover_blob_for_window(0) is None
        assert db.latest_cover_blob() is None


def _stream(n, t0=0.0):
    t = t0 + np.arange(n, dtype=float)
    return TupleBatch(t, t + 0.5, t + 0.25, np.full(n, 400.0))


class TestWindowPartitioning:
    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            Database(partition_h=0)

    def test_unpartitioned_rejects_window_reads(self):
        db = Database()
        db.create_table("raw_tuples", Database.for_enviro_meter().table("raw_tuples").schema)
        with pytest.raises(RuntimeError):
            db.window_view(0)

    def test_window_view_contents(self):
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(10))
        assert np.array_equal(db.window_view(1).t, np.arange(4.0, 8.0))
        assert len(db.window_view(2)) == 2  # open tail window

    def test_sealed_views_are_cached_and_zero_copy(self):
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(6))
        w0 = db.window_view(0)
        db.ingest_tuples(_stream(6, t0=6.0))
        assert db.window_view(0) is w0  # sealed: identical cached object
        assert w0.is_view_of(db.raw_tuples())

    def test_open_window_reflects_appends(self):
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(6))
        assert len(db.window_view(1)) == 2
        db.ingest_tuples(_stream(2, t0=6.0))
        assert len(db.window_view(1)) == 4
        assert db.is_sealed(1)

    def test_sealed_window_ids(self):
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(9))
        assert list(db.sealed_window_ids()) == [0, 1]
        assert not db.is_sealed(2)

    def test_window_views_sequence(self):
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(9))
        views = db.window_views()
        assert len(views) == 3
        assert views.sealed_count() == 2
        assert np.array_equal(views[0].t, np.arange(4.0))

    def test_latest_cover_skips_invalidated_covers(self):
        """latest_cover_blob must not serve a cover the stale-cover
        invalidation dropped from the index."""
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(6))
        db.store_cover_blob(0, 10.0, b"sealed")
        db.store_cover_blob(1, 20.0, b"premature")
        db.ingest_tuples(_stream(3, t0=6.0))  # window 1 grows -> dropped
        assert db.latest_cover_blob() == (0, 10.0, b"sealed")

    def test_latest_cover_none_when_all_invalidated(self):
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(2))
        db.store_cover_blob(0, 10.0, b"premature")
        db.ingest_tuples(_stream(2, t0=2.0))
        assert db.latest_cover_blob() is None

    def test_last_touched_windows(self):
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(6))
        assert list(db.last_touched_windows) == [0, 1]
        db.ingest_tuples(_stream(3, t0=6.0))
        assert list(db.last_touched_windows) == [1, 2]
        db.ingest_tuples(TupleBatch.empty())
        assert list(db.last_touched_windows) == []

    def test_realloc_sweeps_all_stranded_views(self):
        """Views cached for windows that are never re-read must not pin
        superseded buffer generations: the snapshot rebuild sweeps them."""
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(8))
        db.window_view(0)
        db.window_view(1)
        db.ingest_tuples(_stream(20_000, t0=8.0))  # forces reallocation
        fresh = db.raw_tuples()
        assert db._sealed_windows == {}  # stranded views swept, not kept
        assert db.window_view(0).is_view_of(fresh)  # re-sliced on demand

    def test_open_window_cover_dropped_when_window_grows(self):
        """A cover fitted from a partial open window must not be served
        once the window gains tuples."""
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(6))  # window 1 open with 2 tuples
        db.store_cover_blob(0, 10.0, b"sealed")
        db.store_cover_blob(1, 20.0, b"premature")
        db.ingest_tuples(_stream(3, t0=6.0))  # window 1 seals, 2 opens
        assert db.cover_blob_for_window(1) is None  # stale cover dropped
        assert db.cover_blob_for_window(0) == (0, 10.0, b"sealed")

    def test_sealed_cache_refreshed_after_buffer_growth(self):
        """A growth reallocation must not leave the cache pinning the
        superseded buffer generation."""
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(8))
        before = db.window_view(0)
        db.ingest_tuples(_stream(20_000, t0=8.0))  # forces reallocations
        after = db.window_view(0)
        assert after is not before  # refreshed onto the live buffer
        assert after.is_view_of(db.raw_tuples())
        assert np.array_equal(after.t, before.t)  # contents unchanged
        assert db.window_view(0) is after  # identity stable again

    def test_numpy_window_indices_accepted(self):
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(_stream(10))
        views = db.window_views()
        c = np.int64(1)
        assert np.array_equal(views[c].t, db.window_view(int(c)).t)

    def test_snapshot_is_cached_and_never_concatenates(self, monkeypatch):
        db = Database.for_enviro_meter(partition_h=4)
        for i in range(50):
            db.ingest_tuples(_stream(3, t0=3.0 * i))
        monkeypatch.setattr(np, "concatenate", lambda *a, **k: pytest.fail("copied"))
        snap = db.raw_tuples()
        assert len(snap) == 150
        assert db.raw_tuples() is snap  # cached until the next ingest
