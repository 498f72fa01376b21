"""The paper's protocol in process: ``EngineQueryService.handle`` /
``handle_many`` / ``ingest`` over the one query engine."""

import math
import threading

import numpy as np
import pytest

from repro.core.adkmn import fit_adkmn
from repro.core.cover import ModelCover
from repro.data.tuples import TupleBatch
from repro.geo.region import RegionGrid
from repro.network.messages import (
    ModelCoverResponse,
    ModelRequest,
    QueryRequest,
    ValueResponse,
)
from repro.query.sharded import ShardedQueryEngine
from repro.query.subscriptions import registry_for
from repro.server.async_server import EngineQueryService
from repro.storage.shards import ShardRouter

from one_shard import protocol_service


@pytest.fixture()
def server(small_batch):
    srv = protocol_service(h=240)
    srv.ingest(small_batch)
    return srv


def served_cover(service, t: float) -> ModelCover:
    """The cover a model request at time ``t`` is served."""
    return ModelCover.from_blob(service.handle(ModelRequest(t=t, x=0.0, y=0.0)).blob)


def window_of(service, t: float) -> int:
    return int(service.engine.router.windows_for_times((t,))[0])


def fits(service) -> int:
    """Covers the engine fitted: its cache misses (the protocol builds
    nothing but covers)."""
    return service.engine.cache_stats.misses


class TestIngestion:
    def test_ingest_counts(self, small_batch):
        srv = protocol_service()
        assert srv.ingest(small_batch) == len(small_batch)

    def test_no_data_raises(self):
        srv = protocol_service()
        with pytest.raises(RuntimeError):
            srv.handle(QueryRequest(t=0.0, x=0.0, y=0.0))


class TestCoverMaintenance:
    def test_cover_cached_on_first_fit(self, server, small_batch):
        t = float(small_batch.t[100])
        served_cover(server, t)
        c = window_of(server, t)
        assert server.engine.processor_cache.entry_stamp(("cover", 0, c)) is not None
        assert fits(server) == 1

    def test_cover_reused_from_cache(self, server, small_batch):
        t = float(small_batch.t[100])
        a = served_cover(server, t)
        b = served_cover(server, t)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.to_blob() == b.to_blob()
        # Only one fit for the window.
        assert fits(server) == 1

    def test_validity_horizon_applied(self, server, small_batch):
        t = float(small_batch.t[100])
        cover = served_cover(server, t)
        window_end = float(small_batch.t[239])
        assert cover.valid_until == window_end + server.validity_horizon_s

    def test_later_time_uses_later_window(self, server, small_batch):
        c_early = window_of(server, float(small_batch.t[10]))
        c_late = window_of(server, float(small_batch.t[1000]))
        assert c_late > c_early


class TestRequestHandling:
    def test_query_request(self, server, small_batch):
        t = float(small_batch.t[100])
        response = server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))
        assert isinstance(response, ValueResponse)
        assert not math.isnan(response.value)
        assert server.engine.metrics["served"].values == 1

    def test_model_request(self, server, small_batch):
        t = float(small_batch.t[100])
        response = server.handle(ModelRequest(t=t, x=0.0, y=0.0))
        assert isinstance(response, ModelCoverResponse)
        cover = ModelCover.from_blob(response.blob)
        assert cover.size >= 1
        assert server.engine.metrics["served"].covers == 1

    def test_unknown_request(self, server):
        with pytest.raises(TypeError):
            server.handle("not-a-request")

    def test_ingest_invalidates_cache(self, small_batch):
        server = protocol_service(h=240)
        server.ingest(small_batch.slice(0, 1000))
        t = float(small_batch.t[999])
        before = server.handle(ModelRequest(t=t, x=0.0, y=0.0))
        # New data grows the open window; the server refits it lazily.
        server.ingest(small_batch.slice(1000, 1010))
        after = server.handle(ModelRequest(t=t, x=0.0, y=0.0))
        assert isinstance(after, ModelCoverResponse)
        assert after.blob != before.blob
        assert fits(server) == 2


class TestNonFiniteRequests:
    """A query with a non-finite field has no data to answer from; a
    model request with a non-finite field names no (shard, window)."""

    @pytest.mark.parametrize("field", ["t", "x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_query_request_answers_nan(self, small_batch, field, bad):
        server = protocol_service(h=240)
        server.ingest(small_batch.slice(0, 1000))
        fields = {"t": float(small_batch.t[500]), "x": 2000.0, "y": 1500.0}
        fields[field] = bad
        request = QueryRequest(**fields)
        for response in (server.handle(request), server.handle_many([request])[0]):
            assert isinstance(response, ValueResponse)
            assert math.isnan(response.value)
        assert server.engine.metrics["served"].values == 2

    def test_finite_neighbours_keep_their_answers(self, server, small_batch):
        t = float(small_batch.t[500])
        good = QueryRequest(t=t, x=2000.0, y=1500.0)
        mixed = server.handle_many(
            [QueryRequest(t=math.nan, x=2000.0, y=1500.0), good]
        )
        assert math.isnan(mixed[0].value)
        assert mixed[1] == server.handle(good)

    @pytest.mark.parametrize("field", ["t", "x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_model_request_with_a_non_finite_field_raises(
        self, server, small_batch, field, bad
    ):
        fields = {"t": float(small_batch.t[500]), "x": 0.0, "y": 0.0}
        fields[field] = bad
        with pytest.raises(ValueError):
            server.handle(ModelRequest(**fields))
        assert server.engine.metrics["served"].covers == 0


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
        server = protocol_service(h=240)
        router = server.engine.router
        server.ingest(small_batch.slice(0, 1000))
        requests = [
            QueryRequest(t=float(small_batch.t[i]), x=2000.0, y=1500.0)
            for i in (10, 500, 999)
        ] + [ModelRequest(t=float(small_batch.t[999]), x=0.0, y=0.0)]
        before = server.handle_many(requests)
        assert router.epoch == 1
        with pytest.raises(ValueError):
            server.ingest(_broken(small_batch, how))
        assert router.epoch == 1
        assert router.global_count() == 1000
        assert server.handle_many(requests) == before
        # ... and the stream continues where it left off.
        assert server.ingest(small_batch.slice(1000, 1005)) == 5
        assert router.epoch == 2

    def test_empty_batch_is_no_epoch(self, server):
        epoch = server.engine.router.epoch
        assert server.ingest(TupleBatch.empty()) == 0
        assert server.engine.router.epoch == epoch


class TestEpochs:
    def test_handle_with_epoch_reports_the_pinned_epoch(self, small_batch):
        server = protocol_service(h=240)
        request = QueryRequest(t=float(small_batch.t[50]), x=2000.0, y=1500.0)
        for k, lo in enumerate(range(0, 1200, 300), start=1):
            server.ingest(small_batch.slice(lo, lo + 300))
            response, epoch = server.handle_with_epoch(request)
            assert epoch == k == server.engine.router.epoch
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
        assert server.engine.metrics["served"].as_dict() == {"covers": 2, "values": 3}

    def test_sealed_windows_and_data(self, small_batch):
        server = protocol_service(h=240)
        router = server.engine.router
        assert router.global_count() == 0
        server.ingest(small_batch.slice(0, 500))
        assert router.global_count() == 500
        assert router.global_count() // router.h == 2

    def test_engine_context_manager_holds_no_threads(self, small_batch):
        threads = threading.active_count()
        with protocol_service(h=240).engine as engine:
            server = EngineQueryService(engine, method="model-cover")
            server.ingest(small_batch.slice(0, 500))
            server.handle_many(
                [QueryRequest(t=float(small_batch.t[i]), x=0.0, y=0.0) for i in (1, 2)]
            )
            assert threading.active_count() == threads
        assert threading.active_count() == threads


class TestLoneQuery:
    """A lone query and the same query in a batch are both answered by
    the route lane at a pinned binding: bit for bit the same."""

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
    def test_served_cover_is_the_windows_fit_restamped(self, server, small_batch, row):
        t = float(small_batch.t[row])
        blob = server.handle(ModelRequest(t=t, x=0.0, y=0.0)).blob
        cover = ModelCover.from_blob(blob)
        c = window_of(server, t)
        last = min((c + 1) * 240, len(small_batch)) - 1
        assert cover.window_c == c
        assert cover.valid_until == float(small_batch.t[last]) + 4 * 3600.0
        window = small_batch.slice(c * 240, last + 1)
        want = fit_adkmn(window, server.engine.config, window_c=c).cover
        assert np.array_equal(cover.centroids, want.centroids)

    @pytest.mark.parametrize("horizon", [0.0, 600.0, 86400.0])
    def test_horizon_only_moves_t_n(self, small_batch, horizon):
        t = float(small_batch.t[700])
        blobs = {}
        for h_s in (4 * 3600.0, horizon):
            server = protocol_service(h=240, validity_horizon_s=h_s)
            server.ingest(small_batch)
            blobs[h_s] = served_cover(server, t)
        a, b = blobs[4 * 3600.0], blobs[horizon]
        assert b.valid_until - a.valid_until == horizon - 4 * 3600.0
        np.testing.assert_array_equal(a.centroids, b.centroids)


class TestShardedProtocol:
    """On a region-sharded store a model request gets the cover of the
    (shard, window) owning its position, and query requests answer what
    the engine's ``model-cover`` plan answers."""

    @pytest.fixture()
    def sharded(self, small_dataset):
        router = ShardRouter(
            RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4), h=240
        )
        router.ingest(small_dataset.tuples)
        return EngineQueryService(ShardedQueryEngine(router), method="model-cover")

    @pytest.mark.parametrize("row", [100, 2000, -1])
    def test_model_request_is_the_owner_slices_cover(self, sharded, small_batch, row):
        router = sharded.engine.router
        t = float(small_batch.t[row])
        c = int(router.windows_for_times((t,))[0])
        for s in range(router.n_shards):
            rows = router.shard_window(s, c)
            if not len(rows):
                continue
            x, y = float(rows.x[0]), float(rows.y[0])
            assert router.grid.shard_of(x, y) == s
            cover = ModelCover.from_blob(
                sharded.handle(ModelRequest(t=t, x=x, y=y)).blob
            )
            want = fit_adkmn(
                rows, sharded.engine.config,
                valid_until=float(rows.t[-1]) + 4 * 3600.0, window_c=c,
            ).cover
            assert cover.to_blob() == want.to_blob()

    def test_empty_owner_slice_is_a_lookup_error(self, small_batch):
        grid = RegionGrid.for_shard_count(_bbox(small_batch), 4)
        router = ShardRouter(grid, h=240)
        # Every row in the first shard's cell: the others stay empty.
        first = small_batch.slice(0, 480)
        x0, y0 = grid.bounds.min_x, grid.bounds.min_y
        router.ingest(
            TupleBatch(first.t, np.full(480, x0), np.full(480, y0), first.s)
        )
        service = EngineQueryService(ShardedQueryEngine(router), method="model-cover")
        t = float(first.t[100])
        far = (grid.bounds.max_x, grid.bounds.max_y)
        assert grid.shard_of(*far) != grid.shard_of(x0, y0)
        with pytest.raises(LookupError):
            service.handle(ModelRequest(t=t, x=far[0], y=far[1]))
        assert service.engine.metrics["served"].covers == 0
        assert service.handle(ModelRequest(t=t, x=x0, y=y0)).blob
        # A query there is the plan's exact fallback, not an error.
        value = service.handle(QueryRequest(t=t, x=far[0], y=far[1])).value
        want = service.engine.point_query(t, far[0], far[1], method="model-cover")
        assert np.float64(value).tobytes() == np.float64(
            math.nan if want.value is None else want.value
        ).tobytes()

    def test_query_requests_are_the_engines_answers(self, sharded, small_batch):
        engine = sharded.engine
        requests = [
            QueryRequest(t=float(small_batch.t[i]), x=500.0 + 9.0 * i, y=400.0 + 5.0 * i)
            for i in range(0, 5000, 97)
        ]
        batched = [r.value for r in sharded.handle_many(requests)]
        lone = [sharded.handle(r).value for r in requests]
        want = [
            engine.point_query(r.t, r.x, r.y, method="model-cover").value
            for r in requests
        ]
        want = [math.nan if v is None else v for v in want]
        assert np.array(batched).tobytes() == np.array(want).tobytes()
        assert np.array(lone).tobytes() == np.array(want).tobytes()


def _bbox(batch):
    from repro.geo.coords import BoundingBox

    return BoundingBox(
        float(batch.x.min()), float(batch.y.min()),
        float(batch.x.max()), float(batch.y.max()),
    )


class TestSubscriptions:
    def test_ingest_wakes_the_registry_and_routes_follow(self, small_batch):
        engine = protocol_service(h=240).engine
        server = EngineQueryService(
            engine, method="model-cover", subscriptions=registry_for(engine)
        )
        server.ingest(small_batch.slice(0, 1000))
        woken = []
        server.subscriptions.add_listener(lambda: woken.append(1))
        route = [(2000.0, 1500.0), (2600.0, 1900.0)]
        sub = server.subscriptions.subscribe(
            route, float(small_batch.t[990]), count=5, method=server.method
        )
        assert sub.method == "model-cover"
        server.ingest(small_batch.slice(1000, 1100))
        assert woken
        updates = server.subscriptions.poll(sub.id)
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

    def test_an_empty_batch_wakes_nobody(self, small_batch):
        engine = protocol_service(h=240).engine
        server = EngineQueryService(
            engine, method="model-cover", subscriptions=registry_for(engine)
        )
        woken = []
        server.subscriptions.add_listener(lambda: woken.append(1))
        server.ingest(TupleBatch.empty())
        assert not woken
        server.ingest(small_batch.slice(0, 10))
        assert woken == [1]


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
        assert server.engine.metrics["served"].values == 5

    def test_empty_batch(self, server):
        assert server.handle_many([]) == []


class TestVectorizedWindowAssignment:
    def test_windows_for_times_matches_scalar(self, server, small_batch):
        router = server.engine.router
        ts = [float(small_batch.t[i]) for i in (0, 5, 300, 700, 1200)]
        ts.append(float(small_batch.t[0]) - 1.0)  # before the stream
        vec = router.windows_for_times(ts)
        assert vec.tolist() == [router.window_for_time(t) for t in ts]
        assert vec.tolist() == [window_of(server, t) for t in ts]

    def test_windows_for_times_on_an_empty_store(self):
        with pytest.raises(RuntimeError):
            protocol_service().engine.router.windows_for_times([0.0])


class TestIncrementalIngest:
    def test_query_after_many_ingests_never_concatenates(
        self, small_batch, monkeypatch
    ):
        server = protocol_service(h=240)
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
        server = protocol_service(h=240)
        server.ingest(small_batch.slice(0, 1200))
        t = float(small_batch.t[100])
        server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))
        before = fits(server)
        cache = server.engine.processor_cache
        assert [key for key in cache.keys()] == [("cover", 0, 0)]
        server.ingest(small_batch.slice(1200, 1300))  # touches window 5 only
        server.handle(QueryRequest(t=t, x=2000.0, y=1500.0))
        assert fits(server) == before
        assert server.engine.cache_stats.hits == 1


class TestInterleavedIngestConvergence:
    def test_premature_cover_refit_once_window_fills(self, small_batch):
        """A cover fitted while its window was still filling must be refit
        after more of the window's tuples arrive — interleaved ingest and
        query converges to the one-shot server's answer."""
        t = float(small_batch.t[100])
        request = QueryRequest(t=t, x=2000.0, y=1500.0)

        one_shot = protocol_service(h=240)
        one_shot.ingest(small_batch.slice(0, 480))
        want = one_shot.handle(request)

        interleaved = protocol_service(h=240)
        interleaved.ingest(small_batch.slice(0, 100))
        premature = interleaved.handle(request)  # window 0 only partial
        interleaved.ingest(small_batch.slice(100, 480))
        got = interleaved.handle(request)
        assert got.value == pytest.approx(want.value, abs=0.0)
        assert fits(interleaved) == 2  # partial fit + one refit
        assert premature.value != want.value  # the stale answer it replaced
