"""Tests for repro.server."""

import math

import numpy as np
import pytest

from repro.core.cover import ModelCover
from repro.network.messages import (
    ModelCoverResponse,
    ModelRequest,
    QueryRequest,
    ValueResponse,
)
from repro.server.server import EnviroMeterServer


@pytest.fixture()
def server(small_batch):
    srv = EnviroMeterServer(h=240)
    srv.ingest(small_batch)
    return srv


class TestIngestion:
    def test_ingest_counts(self, small_batch):
        srv = EnviroMeterServer()
        assert srv.ingest(small_batch) == len(small_batch)

    def test_no_data_raises(self):
        srv = EnviroMeterServer()
        with pytest.raises(RuntimeError):
            srv.current_window(0.0)


class TestCoverMaintenance:
    def test_cover_persisted_on_first_fit(self, server, small_batch):
        t = float(small_batch.t[100])
        server.cover_for(t)
        c = server.current_window(t)
        assert server.db.cover_blob_for_window(c) is not None

    def test_cover_reused_from_table(self, server, small_batch):
        t = float(small_batch.t[100])
        a = server.cover_for(t)
        b = server.cover_for(t)
        assert np.array_equal(a.centroids, b.centroids)
        # Only one blob stored for the window.
        table = server.db.table("model_cover")
        assert len(table) == 1

    def test_validity_horizon_applied(self, server, small_batch):
        t = float(small_batch.t[100])
        cover = server.cover_for(t)
        window_end = float(small_batch.t[239])
        assert cover.valid_until == pytest.approx(
            window_end + server.validity_horizon_s
        )

    def test_later_time_uses_later_window(self, server, small_batch):
        c_early = server.current_window(float(small_batch.t[10]))
        c_late = server.current_window(float(small_batch.t[1000]))
        assert c_late > c_early


class TestRequestHandling:
    def test_query_request(self, server, small_batch):
        t = float(small_batch.t[100])
        response = server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))
        assert isinstance(response, ValueResponse)
        assert not math.isnan(response.value)
        assert server.served_values == 1

    def test_model_request(self, server, small_batch):
        t = float(small_batch.t[100])
        response = server.handle(ModelRequest(t=t, x=0.0, y=0.0))
        assert isinstance(response, ModelCoverResponse)
        cover = ModelCover.from_blob(response.blob)
        assert cover.size >= 1
        assert server.served_covers == 1

    def test_unknown_request(self, server):
        with pytest.raises(TypeError):
            server.handle("not-a-request")

    def test_ingest_invalidates_cache(self, server, small_batch):
        t = float(small_batch.t[100])
        server.handle(ModelRequest(t=t, x=0.0, y=0.0))
        # New data arrives; the server must rebuild covers lazily and not
        # crash on a stale snapshot.
        server.ingest(small_batch.slice(0, 10))
        response = server.handle(ModelRequest(t=t, x=0.0, y=0.0))
        assert isinstance(response, ModelCoverResponse)


class TestBatchedRequestHandling:
    def test_matches_scalar_handling(self, server, small_batch):
        """handle_many answers exactly as one handle() call per request,
        including requests spanning several windows."""
        requests = [
            QueryRequest(t=float(small_batch.t[i]), x=2000.0 + i, y=1500.0 - i)
            for i in (50, 300, 700, 120, 5)
        ]
        batched = server.handle_many(requests)
        scalar = [server.handle(r) for r in requests]
        assert len(batched) == len(scalar)
        for got, want in zip(batched, scalar):
            assert isinstance(got, ValueResponse)
            assert got.t == want.t
            assert got.value == pytest.approx(want.value, rel=1e-9)

    def test_mixed_request_types_keep_order(self, server, small_batch):
        t = float(small_batch.t[100])
        requests = [
            QueryRequest(t=t, x=2000.0, y=1500.0),
            ModelRequest(t=t, x=0.0, y=0.0),
            QueryRequest(t=t, x=2500.0, y=1200.0),
        ]
        responses = server.handle_many(requests)
        assert isinstance(responses[0], ValueResponse)
        assert isinstance(responses[1], ModelCoverResponse)
        assert isinstance(responses[2], ValueResponse)

    def test_served_values_counted(self, server, small_batch):
        t = float(small_batch.t[100])
        server.handle_many(
            [QueryRequest(t=t, x=2000.0 + i, y=1500.0) for i in range(5)]
        )
        assert server.served_values == 5

    def test_empty_batch(self, server):
        assert server.handle_many([]) == []


class TestVectorizedWindowAssignment:
    def test_windows_for_matches_scalar(self, server, small_batch):
        ts = [float(small_batch.t[i]) for i in (0, 5, 300, 700, 1200)]
        ts.append(float(small_batch.t[0]) - 1.0)  # before the stream
        vec = server.windows_for(ts)
        assert vec.tolist() == [server.current_window(t) for t in ts]

    def test_windows_for_empty_server(self):
        with pytest.raises(RuntimeError):
            EnviroMeterServer().windows_for([0.0])


class TestIncrementalSnapshot:
    def test_snapshot_reused_across_ingests(self, small_batch):
        """After N small ingests a query never rebuilds history: the
        stream snapshot is a zero-copy view and sealed windows are served
        from the cached views."""
        server = EnviroMeterServer(h=240)
        step = 100
        for start in range(0, 1200, step):
            server.ingest(small_batch.slice(start, start + step))
        sealed_before = [server.db.window_view(c) for c in server.db.sealed_window_ids()]
        snap = server._tuples()
        assert snap.is_view_of(server.db.raw_tuples())

        server.ingest(small_batch.slice(1200, 1300))
        # Sealed windows: identical cached objects, no re-slicing/copying.
        for c, view in enumerate(sealed_before):
            assert server.db.window_view(c) is view
        # The refreshed snapshot shares storage with the old one (the
        # ingest extended it in place rather than rebuilding).
        assert server._tuples().is_view_of(snap)

    def test_query_after_many_ingests_never_concatenates(
        self, small_batch, monkeypatch
    ):
        server = EnviroMeterServer(h=240)
        for start in range(0, 1200, 60):
            server.ingest(small_batch.slice(start, start + 60))
        t = float(small_batch.t[100])
        server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))  # fit once
        monkeypatch.setattr(
            np, "concatenate", lambda *a, **k: pytest.fail("full-history copy")
        )
        server.ingest(small_batch.slice(1200, 1260))
        response = server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))
        assert not math.isnan(response.value)

    def test_untouched_window_cover_cache_survives_ingest(self, small_batch):
        server = EnviroMeterServer(h=240)
        server.ingest(small_batch.slice(0, 1200))
        t = float(small_batch.t[100])
        server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))
        fits = server.builder_fit_count
        assert server._builder.cached_windows() == (0,)
        server.ingest(small_batch.slice(1200, 1300))  # touches window 5 only
        assert server._builder.cached_windows() == (0,)
        server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))
        assert server.builder_fit_count == fits


class TestInterleavedIngestConvergence:
    def test_premature_cover_refit_once_window_fills(self, small_batch):
        """A cover fitted while its window was still filling must be refit
        after more of the window's tuples arrive — interleaved ingest and
        query converges to the one-shot server's answer."""
        t = float(small_batch.t[100])
        request = QueryRequest(t=t, x=2000.0, y=1500.0)

        one_shot = EnviroMeterServer(h=240)
        one_shot.ingest(small_batch.slice(0, 480))
        want = one_shot.handle(request)

        interleaved = EnviroMeterServer(h=240)
        interleaved.ingest(small_batch.slice(0, 100))
        premature = interleaved.handle(request)  # window 0 only partial
        interleaved.ingest(small_batch.slice(100, 480))
        got = interleaved.handle(request)
        assert got.value == pytest.approx(want.value, abs=0.0)
        assert interleaved.builder_fit_count == 2  # partial fit + one refit
        assert premature.value != want.value  # the stale answer it replaced
