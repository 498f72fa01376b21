"""Tests for repro.storage.shm — shared-memory shard exports."""

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.storage.shm import (
    ShardExportRegistry,
    attach_shard,
    export_shard,
)


def _batch(n, offset=0.0):
    t = offset + np.arange(n, dtype=float)
    return TupleBatch(t, t + 0.5, t + 0.25, t + 400.0)


class TestExportAttachRoundTrip:
    def test_columns_round_trip(self):
        batch = _batch(100)
        gids = np.arange(100, dtype=np.int64) * 3
        export = export_shard(batch, gids)
        try:
            attached = attach_shard(export.descriptor(), untrack=False)
            assert np.array_equal(attached.batch.t, batch.t)
            assert np.array_equal(attached.batch.x, batch.x)
            assert np.array_equal(attached.batch.y, batch.y)
            assert np.array_equal(attached.batch.s, batch.s)
            assert np.array_equal(attached.gids, gids)
            assert attached.gids.dtype == np.int64
        finally:
            export.destroy()

    def test_attached_views_are_read_only(self):
        export = export_shard(_batch(10), np.arange(10, dtype=np.int64))
        try:
            attached = attach_shard(export.descriptor(), untrack=False)
            with pytest.raises(ValueError):
                attached.batch.t[0] = 99.0
            with pytest.raises(ValueError):
                attached.gids[0] = 99
        finally:
            export.destroy()

    def test_window_slices_are_zero_copy(self):
        export = export_shard(_batch(50), np.arange(50, dtype=np.int64))
        try:
            attached = attach_shard(export.descriptor(), untrack=False)
            sub = attached.batch.slice(10, 30)
            assert len(sub) == 20
            assert sub.t.base is not None  # a view, not a copy
            assert np.array_equal(sub.t, attached.batch.t[10:30])
        finally:
            export.destroy()

    def test_empty_shard_exports(self):
        export = export_shard(TupleBatch.empty(), np.empty(0, dtype=np.int64))
        try:
            attached = attach_shard(export.descriptor(), untrack=False)
            assert len(attached.batch) == 0
            assert len(attached.gids) == 0
        finally:
            export.destroy()

    def test_gids_longer_than_batch_are_clamped(self):
        export = export_shard(_batch(5), np.arange(9, dtype=np.int64))
        try:
            attached = attach_shard(export.descriptor(), untrack=False)
            assert np.array_equal(attached.gids, np.arange(5))
        finally:
            export.destroy()

    def test_gids_shorter_than_batch_rejected(self):
        with pytest.raises(ValueError, match="gids"):
            export_shard(_batch(5), np.arange(3, dtype=np.int64))

    def test_destroy_is_idempotent(self):
        export = export_shard(_batch(3), np.arange(3, dtype=np.int64))
        export.destroy()
        export.destroy()

    def test_attach_after_destroy_fails(self):
        export = export_shard(_batch(3), np.arange(3, dtype=np.int64))
        descriptor = export.descriptor()
        export.destroy()
        with pytest.raises(FileNotFoundError):
            attach_shard(descriptor, untrack=False)


    def test_close_unmaps_the_block_once_its_views_are_dropped(self):
        export = export_shard(_batch(2000), np.arange(2000, dtype=np.int64))
        try:
            attached = attach_shard(export.descriptor(), untrack=False)
            sub = attached.batch.slice(10, 30)
            assert float(sub.t[0]) == 10.0
            del sub
            attached.close()
            assert attached.batch is None and attached.gids is None
            with open("/proc/self/maps") as maps:
                mapped = [line for line in maps if export.name in line]
            # The exporter's own mapping is all that is left.
            assert len(mapped) == 1
        finally:
            export.destroy()


class TestShardExportRegistry:
    def test_reuses_export_while_large_enough(self):
        registry = ShardExportRegistry()
        reads = []

        def read_prefix():
            reads.append(1)
            return _batch(40), np.arange(40, dtype=np.int64)

        try:
            d1 = registry.ensure(0, 30, read_prefix)
            d2 = registry.ensure(0, 40, read_prefix)
            assert d1.shm_name == d2.shm_name
            assert len(reads) == 1
        finally:
            registry.close()

    def test_grows_and_retires_when_too_short(self):
        registry = ShardExportRegistry()
        try:
            d1 = registry.ensure(0, 10, lambda: (_batch(10), np.arange(10, dtype=np.int64)))
            d2 = registry.ensure(0, 25, lambda: (_batch(30), np.arange(30, dtype=np.int64)))
            assert d1.shm_name != d2.shm_name
            assert d2.n_rows == 30
            # The retired block is unlinked: a fresh attach must fail.
            with pytest.raises(FileNotFoundError):
                attach_shard(d1, untrack=False)
            attached = attach_shard(d2, untrack=False)
            assert len(attached.batch) == 30
        finally:
            registry.close()

    def test_short_prefix_read_is_an_error(self):
        registry = ShardExportRegistry()
        try:
            with pytest.raises(RuntimeError, match="prefix read"):
                registry.ensure(
                    0, 50, lambda: (_batch(10), np.arange(10, dtype=np.int64))
                )
        finally:
            registry.close()

    def test_independent_shards_get_independent_blocks(self):
        registry = ShardExportRegistry()
        try:
            d0 = registry.ensure(0, 5, lambda: (_batch(5), np.arange(5, dtype=np.int64)))
            d1 = registry.ensure(1, 5, lambda: (_batch(5, offset=100.0), np.arange(5, dtype=np.int64)))
            assert d0.shm_name != d1.shm_name
            assert np.array_equal(attach_shard(d1, untrack=False).batch.t, 100.0 + np.arange(5))
        finally:
            registry.close()

    def test_threads_racing_one_shards_first_export_publish_one_block(self):
        import threading
        import time

        registry = ShardExportRegistry()
        reads, names = [], []
        barrier = threading.Barrier(4)

        def read_prefix():
            reads.append(1)
            time.sleep(0.01)  # the window a second exporter used to enter
            return _batch(40), np.arange(40, dtype=np.int64)

        def client():
            barrier.wait(timeout=10.0)
            names.append(registry.ensure(0, 40, read_prefix).shm_name)

        threads = [threading.Thread(target=client) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(reads) == 1 and len(set(names)) == 1 and len(names) == 4
        finally:
            registry.close()

    def test_close_unlinks_everything(self):
        registry = ShardExportRegistry()
        d = registry.ensure(0, 5, lambda: (_batch(5), np.arange(5, dtype=np.int64)))
        registry.close()
        with pytest.raises(FileNotFoundError):
            attach_shard(d, untrack=False)
        registry.close()  # idempotent
