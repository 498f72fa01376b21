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
* after the stream quiesces, the hammered engine answers
  byte-identically to a freshly-built one;
* the cached lanes, answering an empty owner slice from the window's
  cached rows while a writer fills that slice, only ever give the plan
  path's answer at some epoch the router passed through.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.data.windows import touched_windows
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
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
            stream.slice(0, 2 * H + 5), h=H, radius_m=1e9
        )
        router = engine.router

        def cover(c):
            engine.point_query(float(stream.t[c * H]), 3000.0, 2000.0, "model-cover")
            key = ("cover", 0, c)
            return engine.processor_cache.peek(key, router.shard_window_epoch(0, c))

        sealed, open_before = cover(0), cover(2)
        assert sealed is not None and open_before is not None
        stamps = [router.shard_window_epoch(0, c) for c in range(3)]
        epoch = router.epoch
        grow(engine, stream, len(stream))  # grows window 2, seals it, opens 3
        assert router.epoch == epoch + 1
        assert router.shard_window_epoch(0, 0) == stamps[0]
        assert router.shard_window_epoch(0, 2) > stamps[2]
        assert cover(0) is sealed  # untouched: still hot
        refreshed = cover(2)
        assert refreshed is not None and refreshed is not open_before
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
        tuples (a stale pinned slice would freeze the support)."""
        rng = np.random.default_rng(7)
        stream = make_stream(rng, H + H // 2)
        router = ShardRouter(RegionGrid(BBOX, nx=2, ny=2), h=H)
        first, second = stream.slice(0, H + 5), stream.slice(H + 5, len(stream))
        router.ingest(first)
        engine = ShardedQueryEngine(router, radius_m=1e9)
        t_probe = float(stream.t[-1])
        res1 = engine.point_query(t_probe, 3000.0, 2000.0, method="naive")
        assert res1.support == 5  # open window W_1 so far
        router.ingest(second)
        res2 = engine.point_query(t_probe, 3000.0, 2000.0, method="naive")
        assert res2.support == len(stream) - H  # a stale slice would still say 5
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
        engine = ShardedQueryEngine(router, radius_m=1e9)
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
                    res = engine.point_query(t_probe, 3000.0, 2000.0, method="naive")
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
        assert not violations, f"stale shard slices served: {violations[:5]}"
        fresh = ShardedQueryEngine(router, radius_m=1e9)
        probes_t = np.repeat(stream.t[[len(stream) // 3, -1]], 2)
        probes_x = np.array([1000.0, 5000.0, 1000.0, 5000.0])
        probes_y = np.array([1000.0, 3000.0, 3000.0, 1000.0])
        for t_p, x_p, y_p in zip(probes_t, probes_x, probes_y):
            hot = engine.point_query(float(t_p), float(x_p), float(y_p), "naive")
            ref = fresh.point_query(float(t_p), float(x_p), float(y_p), "naive")
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


class TestLaneAgainstARacingWriter:
    WINDOWS = 12

    def _stream(self, grid):
        """``WINDOWS`` windows over four of the six cells of a 3 x 2 grid:
        the top-middle cell's shard (``empty``) never gets a row, and the
        top-right one's (``filling``) gets every fifth row of a window's
        second half, in the cell's corner next to the populated ones —
        so its slice of each window is empty at first and fills while
        the window is open."""
        stream = make_stream(np.random.default_rng(17), self.WINDOWS * H)
        filling, empty = grid.shard_of(5000.0, 3000.0), grid.shard_of(3000.0, 3000.0)
        x, y = stream.x.copy(), stream.y.copy()
        y[np.isin(grid.shards_of(x, y), [filling, empty])] -= 2000.0
        offset = np.arange(len(stream)) % H
        late = (offset >= H // 2) & (offset % 5 == 0)
        x[late], y[late] = 4000.0 + x[late] / 15.0, 2000.0 + y[late] / 10.0
        owners = grid.shards_of(x, y)
        assert not (owners == empty).any()
        assert not (owners[offset < H // 2] == filling).any()
        return TupleBatch(stream.t, x, y, stream.s), filling, empty

    def test_every_lane_answer_is_the_plan_paths_at_some_epoch(self, monkeypatch):
        """One-row ingests fill each window in turn — the ``filling``
        shard's slice of it half way through — while a warmer runs the
        plan path on the open window's requests (fitting covers, and
        caching that window's rows: the ``empty`` shard's query always
        falls back) and readers ask both lanes the same requests, with
        more threads than cores, a short switch interval and a pause
        after every stamp read.  The warmer also runs the empty owner's
        query alone, which caches the window's rows without re-fitting
        the filling shard's cover.  A request's times precede every
        window still to come, and the open window is the only one that
        changes and holds at most one cover run, so every lane answer
        must be the plan path's at one epoch between the reader's first
        look at the router and its last — replayed afterwards over a
        fresh router holding exactly that epoch's rows."""
        grid = RegionGrid(BBOX, nx=3, ny=2)
        stream, filling, empty = self._stream(grid)
        first = H + 3
        router = ShardRouter(grid, h=H)
        router.ingest(stream.slice(0, first))  # epoch 1

        # Both owners' queries sit by the filling corner and the populated
        # cells below, so an exact answer there moves as the window fills
        # — the filling shard's rows included — and differs from that
        # shard's cover once it has one.
        (fx, fy), (ex, ey) = (4100.0, 2100.0), (3900.0, 2100.0)
        assert grid.shard_of(fx, fy) == filling and grid.shard_of(ex, ey) == empty

        def requests(c):
            """Window ``c``'s route (an empty owner, and one that fills,
            in window ``c``; a cover of window ``c - 1``) and point."""
            t, t_before = float(stream.t[c * H + 2]), float(stream.t[c * H - 5])
            near = float(stream.x[c * H - 5]), float(stream.y[c * H - 5])
            route = QueryBatch(
                [t_before, t, t, t], [near[0], fx, fx - 50.0, ex], [near[1], fy, fy, ey]
            )
            return route, (t, fx, fy)

        def open_window():
            """The newest window whose requests' times are ingested."""
            n = router.global_count()
            c = (n - 1) // H
            return c if n > c * H + 2 else c - 1

        engine = ShardedQueryEngine(router)
        rows_scans = []
        real_scan = engine._scan_rows

        def counted_scan(*args):
            rows_scans.append(1)
            return real_scan(*args)

        monkeypatch.setattr(engine, "_scan_rows", counted_scan)
        read_stamp = router.shard_window_epoch

        def dawdling_stamp(s, c):
            # Readers linger after each stamp read — longest after an
            # empty slice's — so that an ingest filling it and the
            # warmer's re-seed land between two reads of one request.
            stamp = read_stamp(s, c)
            if threading.current_thread().name == "lane-reader":
                time.sleep(0.0002 if stamp else 0.003)
            return stamp

        monkeypatch.setattr(router, "shard_window_epoch", dawdling_stamp)
        stop = threading.Event()
        answers, failures = [], []

        def guarded(body):
            def run():
                try:
                    body()
                except BaseException as exc:  # pragma: no cover - failure path
                    failures.append(exc)
                    stop.set()

            return run

        @guarded
        def write():
            for k in range(first, len(stream)):
                router.ingest(stream.slice(k, k + 1))
                time.sleep(0.002)

        @guarded
        def warm():
            while not stop.is_set():
                route, point = requests(open_window())
                engine.continuous_query_batch(route, method="model-cover")
                engine.point_query(*point, method="model-cover")
                # The empty owner's query alone: the window's rows are
                # re-cached without the filling shard's cover being re-fit.
                empty_only = route.take(np.array([3]))
                engine.continuous_query_batch(empty_only, method="model-cover")

        @guarded
        def read():
            while not stop.is_set():
                c = open_window()
                route, point = requests(c)
                e0 = router.epoch
                got = engine.cached_route(route, "model-cover")
                if got is not None:
                    got = got.values.tobytes(), got.support.tobytes()
                    answers.append((c, 0, got, e0, router.epoch))
                e0 = router.epoch
                got = engine.cached_point(*point, "model-cover")
                if got is not None:
                    answers.append((c, 1, got, e0, router.epoch))

        writer = threading.Thread(target=write, daemon=True)
        others = [threading.Thread(target=warm, daemon=True)] + [
            threading.Thread(target=read, daemon=True, name="lane-reader")
            for _ in range(N_READERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in [writer, *others]:
                th.start()
            writer.join(timeout=60.0)
        finally:
            stop.set()
            for th in others:
                th.join(timeout=60.0)
            sys.setswitchinterval(interval)
            engine.close()
        assert not writer.is_alive() and not any(th.is_alive() for th in others)
        assert not failures, failures[:1]
        assert rows_scans and answers  # both lanes answered, empty owners too

        engines, references = {}, {}

        def at_epoch(e, c):
            """Window ``c``'s requests' plan-path answers over epoch
            ``e``'s rows."""
            if (e, c) not in references:
                if e not in engines:
                    fresh = ShardRouter(grid, h=H)
                    fresh.ingest(stream.slice(0, first + e - 1))
                    engines[e] = ShardedQueryEngine(fresh)
                route, point = requests(c)
                result = engines[e].continuous_query_batch(route, method="model-cover")
                references[e, c] = (
                    (result.values.tobytes(), result.support.tobytes()),
                    engines[e].point_query(*point, method="model-cover"),
                )
            return references[e, c]

        # The epoch a reader first saw may still have been mid-ingest.
        wrong = [
            (c, kind, e0, e1)
            for c, kind, got, e0, e1 in answers
            if all(at_epoch(e, c)[kind] != got for e in range(max(e0 - 1, 1), e1 + 1))
        ]
        for oracle in engines.values():
            oracle.close()
        assert wrong == []


def test_touched_windows_is_the_invalidation_oracle():
    """The server's ingest path invalidates exactly the grown windows."""
    assert list(touched_windows(85, 10, H)) == [2]
    assert list(touched_windows(75, 10, H)) == [1, 2]
