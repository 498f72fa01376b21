"""Tests for repro.server."""

import math

import numpy as np
import pytest

from repro.core.cover import ModelCover
from repro.data.tuples import TupleBatch
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
    def test_cover_cached_on_first_fit(self, server, small_batch):
        t = float(small_batch.t[100])
        server.cover_for(t)
        c = server.current_window(t)
        assert server.cover_cache.entry_stamp(("cover", 0, c)) is not None
        assert server.builder_fit_count == 1

    def test_cover_reused_from_cache(self, server, small_batch):
        t = float(small_batch.t[100])
        a = server.cover_for(t)
        b = server.cover_for(t)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.to_blob() == b.to_blob()
        # Only one fit for the window.
        assert server.builder_fit_count == 1

    def test_validity_horizon_applied(self, server, small_batch):
        t = float(small_batch.t[100])
        cover = server.cover_for(t)
        window_end = float(small_batch.t[239])
        assert cover.valid_until == window_end + server.validity_horizon_s

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

    def test_ingest_invalidates_cache(self, small_batch):
        server = EnviroMeterServer(h=240)
        server.ingest(small_batch.slice(0, 1000))
        t = float(small_batch.t[999])
        before = server.handle(ModelRequest(t=t, x=0.0, y=0.0))
        # New data grows the open window; the server refits it lazily.
        server.ingest(small_batch.slice(1000, 1010))
        after = server.handle(ModelRequest(t=t, x=0.0, y=0.0))
        assert isinstance(after, ModelCoverResponse)
        assert after.blob != before.blob
        assert server.builder_fit_count == 2


class TestNonFiniteRequests:
    """A query with a non-finite field has no data to answer from; a
    model request with a non-finite time names no window."""

    @pytest.mark.parametrize("field", ["t", "x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_query_request_answers_nan(self, small_batch, field, bad):
        server = EnviroMeterServer(h=240)
        server.ingest(small_batch.slice(0, 1000))
        fields = {"t": float(small_batch.t[500]), "x": 2000.0, "y": 1500.0}
        fields[field] = bad
        request = QueryRequest(**fields)
        for response in (server.handle(request), server.handle_many([request])[0]):
            assert isinstance(response, ValueResponse)
            assert math.isnan(response.value)
        assert server.served_values == 2

    def test_finite_neighbours_keep_their_answers(self, server, small_batch):
        t = float(small_batch.t[500])
        good = QueryRequest(t=t, x=2000.0, y=1500.0)
        mixed = server.handle_many(
            [QueryRequest(t=math.nan, x=2000.0, y=1500.0), good]
        )
        assert math.isnan(mixed[0].value)
        assert mixed[1] == server.handle(good)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_model_request_with_non_finite_time_raises(self, server, bad):
        with pytest.raises(ValueError):
            server.handle(ModelRequest(t=bad, x=0.0, y=0.0))
        assert server.served_covers == 0


def _broken(batch, how):
    """A 5-row continuation of ``batch``'s first 1 000 rows, broken."""
    tail = batch.slice(1000, 1005)
    t, x, y, s = (np.array(c) for c in (tail.t, tail.x, tail.y, tail.s))
    if how == "replayed":
        return batch.slice(0, 10)
    if how == "late":
        t[0] = float(batch.t[998])
    elif how == "unsorted":
        t[[1, 3]] = t[[3, 1]]
    elif how in ("nan-t", "inf-t"):
        t[2] = math.nan if how == "nan-t" else math.inf
    elif how in ("nan-x", "inf-y"):
        (x if how == "nan-x" else y)[2] = math.nan if how == "nan-x" else math.inf
    return TupleBatch(t, x, y, s)


class TestIngestContract:
    """A batch that breaks the ingest contract raises ``ValueError`` and
    changes nothing: the epoch, the rows and every answer stay."""

    @pytest.mark.parametrize(
        "how", ["replayed", "late", "unsorted", "nan-t", "inf-t", "nan-x", "inf-y"]
    )
    def test_rejected_batch_changes_nothing(self, small_batch, how):
        server = EnviroMeterServer(h=240)
        server.ingest(small_batch.slice(0, 1000))
        requests = [
            QueryRequest(t=float(small_batch.t[i]), x=2000.0, y=1500.0)
            for i in (10, 500, 999)
        ] + [ModelRequest(t=float(small_batch.t[999]), x=0.0, y=0.0)]
        before = server.handle_many(requests)
        assert server.epoch == 1
        with pytest.raises(ValueError):
            server.ingest(_broken(small_batch, how))
        assert server.epoch == 1
        assert server.engine.router.global_count() == 1000
        assert server.handle_many(requests) == before
        # ... and the stream continues where it left off.
        assert server.ingest(small_batch.slice(1000, 1005)) == 5
        assert server.epoch == 2

    def test_empty_batch_is_no_epoch(self, server):
        epoch = server.epoch
        assert server.ingest(TupleBatch.empty()) == 0
        assert server.epoch == epoch


class TestEpochs:
    def test_handle_with_epoch_reports_the_pinned_epoch(self, small_batch):
        server = EnviroMeterServer(h=240)
        request = QueryRequest(t=float(small_batch.t[50]), x=2000.0, y=1500.0)
        for k, lo in enumerate(range(0, 1200, 300), start=1):
            server.ingest(small_batch.slice(lo, lo + 300))
            response, epoch = server.handle_with_epoch(request)
            assert epoch == k == server.epoch
            assert response == server.handle(request)
            _, many_epoch = server.handle_many_with_epoch([request, request])
            assert many_epoch == k

    def test_counters_count_each_kind(self, server, small_batch):
        t = float(small_batch.t[100])
        server.handle_many(
            [
                QueryRequest(t=t, x=2000.0, y=1500.0),
                ModelRequest(t=t, x=0.0, y=0.0),
                QueryRequest(t=math.nan, x=2000.0, y=1500.0),
                ModelRequest(t=t, x=0.0, y=0.0),
            ]
        )
        server.handle(QueryRequest(t=t, x=2100.0, y=1500.0))
        assert (server.served_values, server.served_covers) == (3, 2)

    def test_sealed_windows_and_data(self, small_batch):
        server = EnviroMeterServer(h=240)
        assert not server.has_data()
        assert server.sealed_windows_total == 0
        server.ingest(small_batch.slice(0, 500))
        assert server.has_data()
        assert server.sealed_windows_total == 2

    def test_context_manager_releases_the_pool(self, small_batch):
        with EnviroMeterServer(h=240, max_workers=2) as server:
            server.ingest(small_batch.slice(0, 500))
            assert server.engine.executor.max_workers == 2
        assert server.engine.executor._pool is None


class TestLoneQuery:
    """A lone query skips the plan: it must answer what the plan path
    answers for it, bit for bit."""

    @pytest.mark.parametrize("row", [0, 239, 240, 1000, 4321, -1])
    @pytest.mark.parametrize(
        "xy", [(2000.0, 1500.0), (-5e4, 9e4), (0.0, 0.0)], ids=["in", "far", "origin"]
    )
    def test_lone_query_is_the_plan_answer(self, server, small_batch, row, xy):
        t = float(small_batch.t[row])
        lone = QueryRequest(t=t, x=xy[0], y=xy[1])
        other = QueryRequest(t=t, x=xy[0] + 1.0, y=xy[1])
        got = server.handle(lone).value
        via_plan = server.handle_many([lone, other])[0].value
        assert np.float64(got).tobytes() == np.float64(via_plan).tobytes()


class TestServedCover:
    @pytest.mark.parametrize("row", [0, 100, 239, 240, 3000, -1])
    def test_cover_for_is_the_model_request_blob(self, server, small_batch, row):
        t = float(small_batch.t[row])
        blob = server.handle(ModelRequest(t=t, x=0.0, y=0.0)).blob
        assert server.cover_for(t).to_blob() == blob
        cover = ModelCover.from_blob(blob)
        c = server.current_window(t)
        last = min((c + 1) * 240, len(small_batch)) - 1
        assert cover.window_c == c
        assert cover.valid_until == float(small_batch.t[last]) + 4 * 3600.0

    @pytest.mark.parametrize("horizon", [0.0, 600.0, 86400.0])
    def test_horizon_only_moves_t_n(self, small_batch, horizon):
        t = float(small_batch.t[700])
        blobs = {}
        for h_s in (4 * 3600.0, horizon):
            server = EnviroMeterServer(h=240, validity_horizon_s=h_s)
            server.ingest(small_batch)
            blobs[h_s] = ModelCover.from_blob(
                server.handle(ModelRequest(t=t, x=0.0, y=0.0)).blob
            )
        a, b = blobs[4 * 3600.0], blobs[horizon]
        assert b.valid_until - a.valid_until == horizon - 4 * 3600.0
        np.testing.assert_array_equal(a.centroids, b.centroids)


class TestSubscriptions:
    def test_subscribe_serves_model_cover_and_follows_ingest(self, small_batch):
        server = EnviroMeterServer(h=240)
        server.ingest(small_batch.slice(0, 1000))
        woken = []
        server.subscriptions.add_listener(lambda: woken.append(1))
        route = [(2000.0, 1500.0), (2600.0, 1900.0)]
        sub = server.subscribe(route, float(small_batch.t[990]), count=5)
        assert sub.method == "model-cover"
        server.ingest(small_batch.slice(1000, 1100))
        assert woken
        updates = server.poll_updates(sub.id)
        assert [u.seq for u in updates] == list(range(1, len(updates) + 1))
        values, _ = sub.answer()
        queries = sub.spec.query_batch()
        want = server.handle_many(
            [
                QueryRequest(t=float(t), x=float(x), y=float(y))
                for t, x, y in zip(queries.t, queries.x, queries.y)
            ]
        )
        np.testing.assert_array_equal(values, [r.value for r in want])


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


class TestIncrementalIngest:
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
        assert [key for key in server.cover_cache.keys()] == [("cover", 0, 0)]
        server.ingest(small_batch.slice(1200, 1300))  # touches window 5 only
        server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))
        assert server.builder_fit_count == fits
        assert server.cache_stats.hits == 1


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
