"""Stress regression: processor caches must never serve stale processors.

PR 3 fixed the sharded engine serving index/cover processors built on a
shorter prefix of a still-open window (then guarded by length-stamped
cache keys); the concurrent serving layer replaced the length stamps
with *content epochs*.  These tests hammer a growing open window from
multiple reader threads while a writer ingests, and assert the epoch
scheme upholds the same guarantee:

* the :class:`ShardedQueryEngine` — over one region or several — never
  answers a full-coverage query with less support than the window held
  before the query was issued, and an ingest re-stamps exactly the
  windows it grew;
* after the stream quiesces, cached processors answer byte-identically
  to a freshly-built engine — a stale survivor would poison this.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.data.windows import touched_windows
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter

from one_shard import grow, one_shard_engine

H = 40
N_READERS = 4
BBOX = BoundingBox(0.0, 0.0, 6000.0, 4000.0)


def make_stream(rng: np.random.Generator, n: int) -> TupleBatch:
    t = np.cumsum(rng.uniform(0.5, 3.0, n))
    return TupleBatch(
        t,
        rng.uniform(0.0, 6000.0, n),
        rng.uniform(0.0, 4000.0, n),
        rng.uniform(350.0, 600.0, n),
    )


class TestOneShardIngestStamps:
    def test_ingest_invalidates_only_touched_windows(self):
        rng = np.random.default_rng(2)
        stream = make_stream(rng, 3 * H + 10)
        engine = one_shard_engine(
            stream.slice(0, 2 * H + 5), h=H, radius_m=1e9, max_workers=1
        )
        router = engine.router

        def index(c):
            engine.point_query(float(stream.t[c * H]), 3000.0, 2000.0, "kdtree")
            key = ("index", 0, c, "kdtree")
            return engine.processor_cache.peek(key, router.shard_window_epoch(0, c))

        sealed, open_before = index(0), index(2)
        assert len(open_before.window) == 5
        stamps = [router.shard_window_epoch(0, c) for c in range(3)]
        epoch = router.epoch
        grow(engine, stream, len(stream))  # grows window 2, seals it, opens 3
        assert router.epoch == epoch + 1
        assert router.shard_window_epoch(0, 0) == stamps[0]
        assert router.shard_window_epoch(0, 2) > stamps[2]
        assert index(0) is sealed  # untouched: still hot
        refreshed = index(2)
        assert refreshed is not open_before
        assert len(refreshed.window) == H
        grow(engine, stream, len(stream))  # no growth, no new epoch
        assert router.epoch == epoch + 1

    def test_ingest_rejects_rows_before_the_held_stream(self):
        rng = np.random.default_rng(3)
        stream = make_stream(rng, 2 * H)
        engine = one_shard_engine(stream, h=H)
        with pytest.raises(ValueError):
            engine.router.ingest(stream.slice(0, H))
        assert engine.router.global_count() == len(stream)


class TestShardedEngineEpochStamps:
    def test_growing_open_window_single_thread_regression(self):
        """The PR 3 regression shape, under epoch stamps: query, grow the
        open window, query again — the second answer must see the new
        tuples (a stale cached index would freeze the support)."""
        rng = np.random.default_rng(7)
        stream = make_stream(rng, H + H // 2)
        router = ShardRouter(RegionGrid(BBOX, nx=2, ny=2), h=H)
        first, second = stream.slice(0, H + 5), stream.slice(H + 5, len(stream))
        router.ingest(first)
        engine = ShardedQueryEngine(router, radius_m=1e9, max_workers=1)
        t_probe = float(stream.t[-1])
        res1 = engine.point_query(t_probe, 3000.0, 2000.0, method="kdtree")
        assert res1.support == 5  # open window W_1 so far
        router.ingest(second)
        res2 = engine.point_query(t_probe, 3000.0, 2000.0, method="kdtree")
        assert res2.support == len(stream) - H  # stale index would still say 5
        engine.close()

    @pytest.mark.parametrize("cells", [1, 2], ids=["one-shard", "2x2"])
    def test_threads_hammering_growing_open_window(self, cells):
        """Readers issue full-coverage queries (radius spans the bbox)
        against the open global window while a writer ingests: every
        answer's support must be at least the window population observed
        before the query was issued, and the quiesced engine must agree
        byte-for-byte with a freshly built one."""
        rng = np.random.default_rng(11)
        stream = make_stream(rng, 4 * H)
        router = ShardRouter(RegionGrid(BBOX, nx=cells, ny=cells), h=H)
        router.ingest(stream.slice(0, H // 2))
        engine = ShardedQueryEngine(router, radius_m=1e9, max_workers=2)
        t_probe = float(stream.t[-1])  # always resolves to the last window
        stop = threading.Event()
        violations: list = []
        failures: list = []

        def reader():
            try:
                while not stop.is_set():
                    n = router.global_count()
                    c = (n - 1) // H
                    floor = n - c * H  # open-window population at/before now
                    res = engine.point_query(t_probe, 3000.0, 2000.0, method="kdtree")
                    # The query may resolve to a later window than c if the
                    # writer advanced past a boundary; only compare when it
                    # answered the window we measured.
                    c_after = (router.global_count() - 1) // H
                    if c_after == c and res.support < floor:
                        violations.append((c, floor, res.support))
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(N_READERS)]
        for t in threads:
            t.start()
        try:
            for start in range(H // 2, len(stream), 11):
                router.ingest(stream.slice(start, min(start + 11, len(stream))))
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not failures, failures[:1]
        assert not violations, f"stale shard processors served: {violations[:5]}"
        fresh = ShardedQueryEngine(router, radius_m=1e9, max_workers=1)
        probes_t = np.repeat(stream.t[[len(stream) // 3, -1]], 2)
        probes_x = np.array([1000.0, 5000.0, 1000.0, 5000.0])
        probes_y = np.array([1000.0, 3000.0, 3000.0, 1000.0])
        for t_p, x_p, y_p in zip(probes_t, probes_x, probes_y):
            hot = engine.point_query(float(t_p), float(x_p), float(y_p), "kdtree")
            ref = fresh.point_query(float(t_p), float(x_p), float(y_p), "kdtree")
            assert hot.support == ref.support
            assert np.array_equal(
                np.float64(hot.value if hot.value is not None else np.nan),
                np.float64(ref.value if ref.value is not None else np.nan),
                equal_nan=True,
            )
        engine.close()
        fresh.close()

    def test_window_epochs_freeze_on_seal(self):
        rng = np.random.default_rng(13)
        stream = make_stream(rng, 3 * H)
        router = ShardRouter(RegionGrid(BBOX, nx=2, ny=2), h=H)
        for start in range(0, len(stream), 17):
            router.ingest(stream.slice(start, min(start + 17, len(stream))))
        frozen = {
            (s, c): router.shard_window_epoch(s, c)
            for s in range(router.n_shards)
            for c in range(router.global_window_count() - 1)  # sealed only
        }
        extra = make_stream(np.random.default_rng(14), 10)
        shifted = TupleBatch(
            extra.t + float(stream.t[-1]) + 1.0, extra.x, extra.y, extra.s
        )
        router.ingest(shifted)  # grows only the tail / a new window
        for (s, c), stamp in frozen.items():
            assert router.shard_window_epoch(s, c) == stamp


def test_touched_windows_is_the_invalidation_oracle():
    """The server's ingest path invalidates exactly the grown windows."""
    assert list(touched_windows(85, 10, H)) == [2]
    assert list(touched_windows(75, 10, H)) == [1, 2]
