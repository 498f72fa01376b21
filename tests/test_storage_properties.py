"""Property-based storage invariants (``docs/testing.md``).

Four contracts of the shard column store, checked over randomised ingest
schedules generated by hypothesis:

* **snapshot immutability** — a ``(rows, gids)`` pair read from a shard
  column at any point never changes contents, however much is appended
  afterwards (zero-copy must not mean shared-mutation);
* **insert atomicity** — an append that fails validation leaves the
  column exactly as it was (length *and* contents), and the next valid
  append lands where it would have;
* **pinned bindings** — a :class:`RouterBinding` taken at any point keeps
  answering from exactly the rows its epoch held, epochs advance by
  exactly one per non-empty ingest, and every window slice it resolves
  is the matching slice of the stream prefix;
* **content stamps** — a window's stamp changes *iff* the window gained
  tuples, and a sealed window's stamp and rows never change again — the
  contract the engine's caches rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.query.pipeline.binding import RouterBinding
from repro.storage.shards import _NumericColumn, _ShardColumn, single_shard_router

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Ingest schedules: a list of batch sizes, including empty batches.
_batch_sizes = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8)
_partition_h = st.integers(min_value=1, max_value=17)
_seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _random_batch(rng: np.random.Generator, n: int, t0: float) -> TupleBatch:
    """``n`` random tuples with strictly increasing timestamps from t0."""
    t = t0 + np.cumsum(rng.uniform(0.1, 5.0, n))
    return TupleBatch(
        t,
        rng.uniform(0.0, 6000.0, n),
        rng.uniform(0.0, 4000.0, n),
        rng.uniform(350.0, 600.0, n),
    )


def _columns_of(batch: TupleBatch) -> dict:
    return {name: np.array(getattr(batch, name)) for name in ("t", "x", "y", "s")}


def _schedule(rng, sizes):
    """The batches of one ingest schedule, time-continuous."""
    t0 = 0.0
    for n in sizes:
        batch = _random_batch(rng, n, t0)
        t0 = float(batch.t[-1]) if n else t0
        yield batch


class TestSnapshotImmutability:
    @_SETTINGS
    @given(sizes=_batch_sizes, seed=_seeds)
    def test_pair_survives_later_appends(self, sizes, seed):
        rng = np.random.default_rng(seed)
        column = _ShardColumn()
        pairs = []  # (rows, gids, deep copy of both at capture)
        start = 0
        for batch in _schedule(rng, sizes):
            column.append(batch, np.arange(start, start + len(batch)))
            start += len(batch)
            rows, gids = column.rows()
            pairs.append((rows, gids, _columns_of(rows), gids.copy()))
        for rows, gids, frozen, frozen_gids in pairs:
            assert len(rows) == len(gids) == len(frozen["t"])
            for name, expected in frozen.items():
                col = getattr(rows, name)
                assert not col.flags.writeable
                np.testing.assert_array_equal(col, expected)
            assert not gids.flags.writeable
            np.testing.assert_array_equal(gids, frozen_gids)

    @_SETTINGS
    @given(sizes=_batch_sizes, seed=_seeds)
    def test_pair_matches_full_history(self, sizes, seed):
        rng = np.random.default_rng(seed)
        column = _ShardColumn()
        history = TupleBatch.empty()
        for batch in _schedule(rng, sizes):
            column.append(batch, np.arange(len(history), len(history) + len(batch)))
            history = history.concat(batch)
        rows, gids = column.rows()
        for name in ("t", "x", "y", "s"):
            np.testing.assert_array_equal(getattr(rows, name), getattr(history, name))
        np.testing.assert_array_equal(gids, np.arange(len(history)))


class TestInsertAtomicity:
    @staticmethod
    def _state(column: _ShardColumn):
        rows, gids = column.rows()
        return _columns_of(rows), gids.copy()

    def _assert_unchanged(self, column, before, n_good):
        rows, gids = column.rows()
        assert len(rows) == len(gids) == n_good
        after = self._state(column)
        for name, expected in before[0].items():
            np.testing.assert_array_equal(after[0][name], expected)
        np.testing.assert_array_equal(after[1], before[1])
        # Every buffer is still aligned with the committed count, so the
        # next valid append lands right behind the good rows.
        assert all(len(col) == n_good for col in column._columns)

    @_SETTINGS
    @given(
        n_good=st.integers(min_value=0, max_value=40),
        n_bad=st.integers(min_value=1, max_value=10),
        short_by=st.integers(min_value=1, max_value=5),
        seed=_seeds,
    )
    def test_gid_count_mismatch_changes_nothing(self, n_good, n_bad, short_by, seed):
        rng = np.random.default_rng(seed)
        column = _ShardColumn()
        good = _random_batch(rng, n_good, 0.0)
        column.append(good, np.arange(n_good))
        before = self._state(column)
        bad = _random_batch(rng, n_bad + short_by, 1e6)
        with pytest.raises(ValueError):
            column.append(bad, np.arange(n_good, n_good + n_bad))
        self._assert_unchanged(column, before, n_good)
        more = _random_batch(rng, 3, 2e6)
        column.append(more, np.arange(n_good, n_good + 3))
        rows, gids = column.rows()
        np.testing.assert_array_equal(rows.t[n_good:], more.t)
        np.testing.assert_array_equal(gids, np.arange(n_good + 3))

    @_SETTINGS
    @given(n_good=st.integers(min_value=0, max_value=40), seed=_seeds)
    def test_non_vector_gids_change_nothing(self, n_good, seed):
        rng = np.random.default_rng(seed)
        column = _ShardColumn()
        good = _random_batch(rng, n_good, 0.0)
        column.append(good, np.arange(n_good))
        before = self._state(column)
        bad = _random_batch(rng, 2, 1e6)
        with pytest.raises(ValueError):
            column.append(bad, np.array([[n_good, n_good + 1]]))
        self._assert_unchanged(column, before, n_good)

    @_SETTINGS
    @given(n_good=st.integers(min_value=0, max_value=40), seed=_seeds)
    def test_numeric_column_rejects_non_vector_payload(self, n_good, seed):
        rng = np.random.default_rng(seed)
        column = _NumericColumn(np.dtype(np.float64))
        column.extend(rng.uniform(0.0, 1.0, n_good))
        before = column.snapshot().copy()
        with pytest.raises(ValueError):
            column.extend(np.array([[1.0, 2.0]]))
        with pytest.raises((TypeError, ValueError)):
            column.extend(np.array(["not a number"]))
        assert len(column) == n_good
        np.testing.assert_array_equal(column.snapshot(), before)


class TestPinnedBindings:
    @_SETTINGS
    @given(sizes=_batch_sizes, h=_partition_h, seed=_seeds)
    def test_bindings_pinned_and_epochs_monotone(self, sizes, h, seed):
        rng = np.random.default_rng(seed)
        router = single_shard_router(h)
        history = TupleBatch.empty()
        taken = []  # (binding, stream prefix it pinned)
        for batch in _schedule(rng, sizes):
            epoch_before = router.epoch
            router.ingest(batch)
            history = history.concat(batch)
            # Exactly one epoch per non-empty ingest, none for empties.
            assert router.epoch == epoch_before + (1 if len(batch) else 0)
            binding = RouterBinding(router)
            assert binding.epoch == router.epoch
            assert binding.stream_rows() == len(history)
            taken.append((binding, history))
        # Every binding, resolved only now, still answers from exactly
        # the prefix it pinned — windows, rows and gids.
        for binding, prefix in taken:
            n = len(prefix)
            assert binding.stream_rows() == n
            if not n:
                continue
            probes = np.concatenate([prefix.t, [prefix.t[-1] + 1e9]])
            np.testing.assert_array_equal(
                binding.windows_for_times(probes),
                np.maximum(np.searchsorted(prefix.t[::h], probes, side="right") - 1, 0),
            )
            for c in range(-(-n // h)):
                stamp, rows, gids = binding.slice_for(0, c)
                assert 0 < stamp <= binding.epoch
                lo, hi = c * h, min((c + 1) * h, n)
                np.testing.assert_array_equal(gids, np.arange(lo, hi))
                for name, expected in _columns_of(prefix.slice(lo, hi)).items():
                    np.testing.assert_array_equal(getattr(rows, name), expected)


class TestContentStamps:
    @_SETTINGS
    @given(sizes=_batch_sizes, h=_partition_h, seed=_seeds)
    def test_window_stamp_changes_iff_window_grows(self, sizes, h, seed):
        rng = np.random.default_rng(seed)
        router = single_shard_router(h)
        previous = None  # (binding, per-window lengths) of the last step
        for batch in _schedule(rng, sizes):
            router.ingest(batch)
            binding = RouterBinding(router)
            n_rows = binding.stream_rows()
            lengths = {c: min(h, n_rows - c * h) for c in range(-(-n_rows // h))}
            if previous is not None:
                prev, prev_lengths = previous
                for c, prev_len in prev_lengths.items():
                    stamp, rows, _ = binding.slice_for(0, c)
                    prev_stamp, prev_rows, _ = prev.slice_for(0, c)
                    if lengths[c] == prev_len:
                        # Unchanged content -> identical stamp, and the
                        # window bytes really are identical.
                        assert stamp == prev_stamp
                        np.testing.assert_array_equal(rows.t, prev_rows.t)
                    else:
                        assert stamp > prev_stamp
            previous = (binding, lengths)

    @_SETTINGS
    @given(sizes=_batch_sizes, h=_partition_h, seed=_seeds)
    def test_sealed_windows_frozen(self, sizes, h, seed):
        rng = np.random.default_rng(seed)
        router = single_shard_router(h)
        recorded: dict = {}  # window -> (stamp, rows copy) at sealing
        for batch in _schedule(rng, sizes):
            router.ingest(batch)
            for c in range(router.global_count() // h):
                stamp, rows, _ = router.snapshot_window(0, c)
                assert len(rows) == h
                if c in recorded:
                    assert stamp == recorded[c][0]
                    np.testing.assert_array_equal(rows.t, recorded[c][1])
                else:
                    recorded[c] = (stamp, rows.t.copy())
        n_rows = router.global_count()
        if n_rows % h:
            assert len(router.shard_window(0, n_rows // h)) == n_rows % h
