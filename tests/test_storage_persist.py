"""Tests for repro.storage.persist."""

import os
import threading

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.storage.engine import Database
from repro.storage.persist import load_database, save_database, serialize_database
from repro.storage.schema import ColumnType, Schema


class TestRoundTrip:
    def test_enviro_meter_database(self, tmp_path):
        db = Database.for_enviro_meter()
        db.ingest_tuples(TupleBatch([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]))
        db.store_cover_blob(0, 99.5, b"\x00\x01\x02cover")
        path = tmp_path / "state.emdb"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.table_names() == db.table_names()
        out = loaded.raw_tuples()
        assert np.array_equal(out.t, np.array([1.0, 2.0]))
        assert loaded.latest_cover_blob() == (0, 99.5, b"\x00\x01\x02cover")

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.emdb"
        save_database(Database(), path)
        assert load_database(path).table_names() == ()

    def test_custom_schema(self, tmp_path):
        db = Database()
        table = db.create_table(
            "mixed",
            Schema.of(
                ("k", ColumnType.INT64),
                ("v", ColumnType.FLOAT64),
                ("blob", ColumnType.BYTES),
            ),
        )
        table.insert((1, 2.5, b"abc"))
        table.insert((2, -1.0, b""))
        path = tmp_path / "mixed.emdb"
        save_database(db, path)
        loaded = load_database(path).table("mixed")
        assert loaded.row(0) == (1, 2.5, b"abc")
        assert loaded.row(1) == (2, -1.0, b"")


class TestPartitionedRoundTrip:
    def _partitioned_db(self):
        db = Database.for_enviro_meter(partition_h=4)
        t = np.arange(10, dtype=float)
        db.ingest_tuples(TupleBatch(t, t + 0.5, t + 0.25, np.full(10, 400.0)))
        db.store_cover_blob(0, 10.0, b"w0-old")
        db.store_cover_blob(1, 20.0, b"w1")
        db.store_cover_blob(0, 30.0, b"w0-new")
        return db

    def test_partition_h_preserved(self, tmp_path):
        db = self._partitioned_db()
        path = tmp_path / "part.emdb"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.partition_h == 4

    def test_window_boundaries_preserved(self, tmp_path):
        db = self._partitioned_db()
        path = tmp_path / "part.emdb"
        save_database(db, path)
        loaded = load_database(path)
        assert list(loaded.sealed_window_ids()) == list(db.sealed_window_ids())
        for c in range(3):
            assert np.array_equal(loaded.window_view(c).t, db.window_view(c).t)

    def test_latest_cover_index_preserved(self, tmp_path):
        db = self._partitioned_db()
        path = tmp_path / "part.emdb"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.cover_index() == db.cover_index()
        assert loaded.cover_blob_for_window(0) == (0, 30.0, b"w0-new")
        assert loaded.cover_blob_for_window(1) == (1, 20.0, b"w1")
        assert loaded.cover_blob_for_window(2) is None

    def test_unpartitioned_database_round_trips(self, tmp_path):
        db = Database()
        db.create_table("misc", Schema.of(("v", ColumnType.FLOAT64)))
        db.table("misc").insert((1.5,))
        path = tmp_path / "plain.emdb"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.partition_h is None
        assert loaded.table("misc").row(0) == (1.5,)


class TestAtomicSave:
    """Crash-injection: a failed save must never damage the previous file."""

    def _good_db(self):
        db = Database.for_enviro_meter(partition_h=4)
        t = np.arange(8, dtype=float)
        db.ingest_tuples(TupleBatch(t, t + 1.0, t + 2.0, np.full(8, 410.0)))
        db.store_cover_blob(0, 5.0, b"cover-0")
        return db

    def _crash_save(self, db, path, monkeypatch, attr, exc):
        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(os, attr, boom)
        with pytest.raises(type(exc)):
            save_database(db, path)

    @pytest.mark.parametrize("attr", ["fsync", "replace"])
    def test_crash_mid_save_preserves_old_file(self, tmp_path, monkeypatch, attr):
        db = self._good_db()
        path = tmp_path / "state.emdb"
        save_database(db, path)
        before = path.read_bytes()

        bigger = self._good_db()
        bigger.ingest_tuples(TupleBatch([100.0], [1.0], [1.0], [1.0]))
        self._crash_save(bigger, path, monkeypatch, attr, OSError("injected crash"))

        assert path.read_bytes() == before
        loaded = load_database(path)
        assert len(loaded.raw_tuples()) == 8

    @pytest.mark.parametrize("attr", ["fsync", "replace"])
    def test_crash_mid_save_leaves_no_temp_files(self, tmp_path, monkeypatch, attr):
        path = tmp_path / "state.emdb"
        self._crash_save(self._good_db(), path, monkeypatch, attr, OSError("injected"))
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_successful_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "state.emdb"
        save_database(self._good_db(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["state.emdb"]

    def test_save_overwrites_previous_file_atomically(self, tmp_path):
        db = self._good_db()
        path = tmp_path / "state.emdb"
        save_database(db, path)
        db.ingest_tuples(TupleBatch([50.0], [2.0], [3.0], [420.0]))
        save_database(db, path)
        assert len(load_database(path).raw_tuples()) == 9


class TestSaveUnderIngest:
    """Torn-save regression: saving while a writer free-runs must capture a
    single epoch-consistent prefix — never columns at different lengths.

    The writer is capped at ``MAX_CHUNKS`` appends.  Uncapped, every save
    (which releases the GIL in its fsync) lets the writer grow the next
    save by an amount proportional to its own duration, so on a slow disk
    the saves grow geometrically — gigabytes of temp files by the 25th.
    The cap sits far above what a save loop interleaves with on an idle
    host, so the saves still race live appends."""

    CHUNK = 7
    MAX_CHUNKS = 10_000

    def _writer(self, db, stop, error):
        i = 0
        try:
            while not stop.is_set() and i < self.MAX_CHUNKS:
                base = float(i * self.CHUNK)
                t = base + np.arange(self.CHUNK, dtype=float)
                db.ingest_tuples(TupleBatch(t, t + 0.5, t + 0.25, t + 400.0))
                if i % 3 == 0:
                    db.store_cover_blob(i % 5, base, b"cover-%d" % i)
                i += 1
        except Exception as exc:  # pragma: no cover - surfaced in main thread
            error.append(exc)

    def test_every_save_is_a_consistent_prefix(self, tmp_path):
        db = Database.for_enviro_meter(partition_h=1000)
        stop, error = threading.Event(), []
        writer = threading.Thread(target=self._writer, args=(db, stop, error))
        writer.start()
        try:
            payloads = []
            for k in range(25):
                path = tmp_path / f"save-{k}.emdb"
                save_database(db, path)
                payloads.append(path)
        finally:
            stop.set()
            writer.join(timeout=30.0)
        assert not error
        final = db.snapshot().batch
        for path in payloads:
            loaded = load_database(path)
            batch = loaded.raw_tuples()
            n = len(batch)
            # All raw columns captured at one committed length (no tear) and
            # the capture is an exact prefix of the final stream.
            assert len(batch.t) == len(batch.x) == len(batch.y) == len(batch.s)
            assert n % self.CHUNK == 0
            for name in ("t", "x", "y", "s"):
                assert np.array_equal(getattr(batch, name), getattr(final, name)[:n])
            # Cover index only points at serialized model_cover rows.
            n_cover_rows = len(loaded.table("model_cover").scan()["window_c"])
            for rid in loaded.cover_index().values():
                assert rid < n_cover_rows

    def test_serialize_is_stable_when_quiescent(self, small_batch):
        db = Database.for_enviro_meter(partition_h=240)
        db.ingest_tuples(small_batch.slice(0, 500))
        db.store_cover_blob(0, 1.0, b"c")
        assert serialize_database(db) == serialize_database(db)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.emdb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not an EnviroMeter"):
            load_database(path)

    def test_truncated(self, tmp_path):
        db = Database.for_enviro_meter()
        db.ingest_tuples(TupleBatch([1.0], [1.0], [1.0], [1.0]))
        path = tmp_path / "ok.emdb"
        save_database(db, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_database(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "future.emdb"
        path.write_bytes(b"EMDB" + (99).to_bytes(4, "little") + b"\x00" * 4)
        with pytest.raises(ValueError, match="version"):
            load_database(path)


class TestErrorPaths:
    """Satellite coverage: corrupt inputs fail with actionable messages
    (path + offset), and trailing garbage is rejected instead of being
    silently ignored."""

    def _saved(self, tmp_path):
        db = Database.for_enviro_meter(partition_h=4)
        t = np.arange(6, dtype=float)
        db.ingest_tuples(TupleBatch(t, t + 1.0, t + 2.0, np.full(6, 400.0)))
        db.store_cover_blob(0, 3.0, b"cover")
        path = tmp_path / "state.emdb"
        save_database(db, path)
        return path

    def test_every_truncation_fails_loudly(self, tmp_path):
        """Any truncation point yields ValueError — never a partial load,
        never a raw struct/numpy error."""
        path = self._saved(tmp_path)
        pristine = path.read_bytes()
        for length in range(len(pristine)):
            path.write_bytes(pristine[:length])
            with pytest.raises(ValueError):
                load_database(path)

    def test_truncation_message_names_path_and_offset(self, tmp_path):
        path = self._saved(tmp_path)
        pristine = path.read_bytes()
        path.write_bytes(pristine[: len(pristine) - 3])
        with pytest.raises(ValueError) as excinfo:
            load_database(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "offset" in message
        assert "truncated" in message

    def test_trailing_garbage_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00garbage")
        with pytest.raises(ValueError, match="trailing garbage"):
            load_database(path)

    def test_single_trailing_byte_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="byte offset"):
            load_database(path)


class TestGoldenBlob:
    """A hard-coded byte image of the current on-disk format: if the
    writer ever drifts (or a reader branch for old versions rots), this
    fails even though fresh round-trips still pass."""

    # Database.for_enviro_meter(partition_h=4), five tuples
    # t=10..50, x=1..5, y=6..10, s=400..440, one cover blob
    # (window 0, valid_until 12.5, b"model-bytes"), serialized 2026-08.
    GOLDEN_HEX = (
        "454d444202000000040000000000000001000000000000000000000000000000"
        "00000000020000000b0000006d6f64656c5f636f766572030000000800000077"
        "696e646f775f63010b00000076616c69645f756e74696c000a000000636f7665"
        "725f626c6f62020100000000000000000000000000000000000000000029400b"
        "0000006d6f64656c2d62797465730a0000007261775f7475706c657304000000"
        "0100000074000100000078000100000079000100000073000500000000000000"
        "000000000000244000000000000034400000000000003e400000000000004440"
        "0000000000004940000000000000f03f00000000000000400000000000000840"
        "0000000000001040000000000000144000000000000018400000000000001c40"
        "0000000000002040000000000000224000000000000024400000000000007940"
        "0000000000a079400000000000407a400000000000e07a400000000000807b40"
    )

    def _golden_db(self):
        db = Database.for_enviro_meter(partition_h=4)
        db.ingest_tuples(
            TupleBatch(
                np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
                np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                np.array([6.0, 7.0, 8.0, 9.0, 10.0]),
                np.array([400.0, 410.0, 420.0, 430.0, 440.0]),
            )
        )
        db.store_cover_blob(0, 12.5, b"model-bytes")
        return db

    def test_golden_blob_loads(self, tmp_path):
        path = tmp_path / "golden.emdb"
        path.write_bytes(bytes.fromhex(self.GOLDEN_HEX))
        db = load_database(path)
        batch = db.raw_tuples()
        assert batch.t.tolist() == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert batch.s.tolist() == [400.0, 410.0, 420.0, 430.0, 440.0]
        assert db.partition_h == 4
        assert db.cover_blob_for_window(0) == (0, 12.5, b"model-bytes")

    def test_writer_still_produces_the_golden_bytes(self):
        assert serialize_database(self._golden_db()).hex() == self.GOLDEN_HEX
