"""Tests for repro.storage.shards.

The router is one class over two window stores; everything that is the
router's own (routing, window alignment, time routing, the ingest
contract) runs over both through the ``router_over`` fixture.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.data.windows import window, window_boundaries_in, windows_for_times
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.storage.shards import ShardRouter, single_shard_router

BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def make_stream(n: int, seed: int = 0) -> TupleBatch:
    rng = np.random.default_rng(seed)
    return TupleBatch(
        np.cumsum(rng.uniform(1.0, 30.0, n)),
        rng.uniform(-500.0, 6500.0, n),   # includes out-of-bounds positions
        rng.uniform(-500.0, 4500.0, n),
        rng.uniform(350.0, 600.0, n),
    )


def fill(router: ShardRouter, stream: TupleBatch, pieces: int = 4) -> None:
    step = max(1, len(stream) // pieces)
    for start in range(0, len(stream), step):
        router.ingest(stream.slice(start, min(start + step, len(stream))))


class TestWindowBoundaries:
    def test_boundaries_in_range(self):
        assert list(window_boundaries_in(0, 10, 4)) == [4, 8]
        assert list(window_boundaries_in(3, 5, 4)) == [4, 8]
        assert list(window_boundaries_in(4, 3, 4)) == []
        assert list(window_boundaries_in(4, 4, 4)) == [8]
        assert list(window_boundaries_in(0, 0, 4)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            window_boundaries_in(0, 1, 0)
        with pytest.raises(ValueError):
            window_boundaries_in(-1, 1, 4)
        with pytest.raises(ValueError):
            window_boundaries_in(0, -1, 4)


class TestRouting:
    def test_ingest_routes_to_owner_only(self):
        router = ShardRouter(RegionGrid(BOUNDS, nx=2, ny=2), h=16)
        stream = make_stream(100)
        delivered = router.ingest(stream)
        owners = router.grid.shards_of(stream.x, stream.y)
        for s in range(4):
            assert delivered[s] == int(np.sum(owners == s))
            assert len(router.shard_column(s)[0]) == delivered[s]
        assert router.global_count() == 100
        assert sum(router.shard_counts()) == 100

    def test_empty_batch_is_noop(self, router_over):
        for store in router_over.stores:
            router = router_over(store, RegionGrid(BOUNDS, nx=1, ny=1), h=8)
            assert router.ingest(TupleBatch.empty()) == [0]
            assert router.global_count() == 0

    def test_shard_streams_stay_time_sorted(self):
        router = ShardRouter(RegionGrid(BOUNDS, nx=3, ny=2), h=16)
        fill(router, make_stream(200))
        for s in range(router.n_shards):
            assert router.shard_column(s)[0].is_time_sorted()

    def test_gids_strictly_increasing_and_partition_global_ids(self):
        router = ShardRouter(RegionGrid(BOUNDS, nx=2, ny=2), h=16)
        fill(router, make_stream(150), pieces=5)
        all_gids = np.concatenate(
            [router.shard_column(s)[1] for s in range(router.n_shards)]
        )
        assert len(all_gids) == 150
        np.testing.assert_array_equal(np.sort(all_gids), np.arange(150))
        for s in range(router.n_shards):
            gids = router.shard_column(s)[1]
            assert np.all(np.diff(gids) > 0) if len(gids) > 1 else True


class TestGlobalWindowAlignment:
    @_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=200),
        h=st.integers(min_value=1, max_value=33),
        pieces=st.integers(min_value=1, max_value=7),
        nx=st.integers(min_value=1, max_value=3),
        ny=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_shard_windows_partition_global_window(
        self, router_over, n, h, pieces, nx, ny, seed
    ):
        """For every global window: the union of per-shard slices is
        exactly the global window's tuples, and each slice preserves
        global stream order (checked via gids) — over either store."""
        stream = make_stream(n, seed=seed)
        for store in router_over.stores:
            router = router_over(store, RegionGrid(BOUNDS, nx=nx, ny=ny), h)
            fill(router, stream, pieces=pieces)
            assert router.global_window_count() == (n + h - 1) // h
            for c in range(router.global_window_count()):
                expected = window(stream, c, h)
                rows = []
                for s in range(router.n_shards):
                    part = router.shard_window(s, c)
                    gids = router.shard_window_gids(s, c)
                    assert len(part) == len(gids)
                    for k in range(len(part)):
                        rows.append((int(gids[k]), part.row(k)))
                rows.sort()
                assert len(rows) == len(expected)
                for (gid, row), k in zip(rows, range(len(expected))):
                    assert gid == c * h + k
                    assert row == expected.row(k)

    def test_window_index_errors(self, router_over):
        for store in router_over.stores:
            router = router_over(store, RegionGrid(BOUNDS, nx=1, ny=1), h=8)
            router.ingest(make_stream(10))
            with pytest.raises(IndexError):
                router.shard_window(0, 99)
            with pytest.raises(ValueError):
                router.shard_window(0, -1)
            with pytest.raises(IndexError):
                router.shard_window_gids(0, 99)

    @_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=200),
        h=st.integers(min_value=1, max_value=33),
        nx=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_windows_for_times_matches_single_stream(
        self, router_over, n, h, nx, seed
    ):
        stream = make_stream(n, seed=seed)
        probes = np.concatenate(
            (
                stream.t,
                [stream.t[0] - 10.0, float(stream.t[-1]) + 10.0],
                stream.t[: max(1, n // 3)] + 0.05,
            )
        )
        expected = windows_for_times(stream.t, probes, h)
        for store in router_over.stores:
            router = router_over(store, RegionGrid(BOUNDS, nx=nx, ny=2), h)
            fill(router, stream)
            np.testing.assert_array_equal(
                router.windows_for_times(probes), expected
            )

    def test_windows_for_times_requires_data(self, router_over):
        for store in router_over.stores:
            router = router_over(store, RegionGrid(BOUNDS, nx=1, ny=1), h=8)
            with pytest.raises(RuntimeError):
                router.windows_for_times([1.0])


def observable_state(router):
    """Everything an ingest may change, WAL bytes included."""
    data_dir = getattr(router, "data_dir", None)
    return (
        router.global_count(),
        router.shard_counts(),
        [router.cuts(s) for s in range(router.n_shards)],
        router.epoch,
        router.layout_epoch,
        [router.window_stats(c) for c in range(router.global_window_count())],
        (data_dir / "wal.log").read_bytes() if data_dir else b"",
        router.tier_stats() if data_dir else {},
    )


@pytest.mark.parametrize("store", ["resident", "segment"])
class TestIngestContract:
    """The stream is append-only in time; the one ``ingest`` enforces it
    before logging or changing anything."""

    def test_bad_batch_is_rejected_without_side_effects(self, router_over, store):
        router = router_over(store, RegionGrid(BOUNDS, nx=2, ny=2), h=16)
        stream = make_stream(100)
        router.ingest(stream.slice(0, 60))  # 3 sealed windows + a 12-row tail
        before = observable_state(router)
        nxt = stream.slice(60, 80)

        def with_t(t):
            return TupleBatch(np.asarray(t, dtype=float), nxt.x, nxt.y, nxt.s)

        def poisoned(column, k, value):
            columns = {name: getattr(nxt, name).copy() for name in "txys"}
            columns[column][k] = value
            return TupleBatch(*(columns[name] for name in "txys"))

        bad = {
            "late": stream.slice(50, 70),
            "unsorted": with_t(nxt.t[::-1]),
            "nan": poisoned("t", 7, np.nan),
            "inf": poisoned("t", -1, np.inf),
            # A non-finite position would otherwise land in cell 0.
            "nan-x": poisoned("x", 3, np.nan),
            "inf-y": poisoned("y", 11, -np.inf),
        }
        for name, batch in bad.items():
            with pytest.raises(ValueError):
                router.ingest(batch)
            assert observable_state(router) == before, name
        # The stream itself is still welcome — including a batch that
        # starts exactly at the last accepted timestamp.
        router.ingest(with_t(np.full(len(nxt), stream.t[59])))
        router.ingest(stream.slice(80, 100))
        assert router.global_count() == 100

    def test_late_batch_cannot_corrupt_time_routing(self, router_over, store):
        router = router_over(store, RegionGrid(BOUNDS, nx=2, ny=1), h=10)
        stream = make_stream(40)
        router.ingest(stream)
        expected = router.windows_for_times(stream.t)
        with pytest.raises(ValueError, match="last accepted"):
            router.ingest(stream.slice(0, 10))
        np.testing.assert_array_equal(router.windows_for_times(stream.t), expected)


class TestValidation:
    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardRouter(RegionGrid(BOUNDS, nx=1, ny=1), h=0)

    def test_cuts_are_copies(self):
        router = single_shard_router(h=4)
        router.ingest(make_stream(10))
        cuts = router.cuts(0)
        cuts.append(999)
        assert router.cuts(0) != cuts
