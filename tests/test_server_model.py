"""The paper's model request on the socket, and what the one front end
answers before its store holds data.

* ``POST /query/model`` and the ``/ws`` ``model`` mode answer the owner
  (shard, window)'s served cover blob — on one shard byte-equal to the
  protocol oracle built from core functions, on four shards the owner
  slice's reference cover;
* every mode answers ``503 {"error": "no data yet"}`` before the first
  ingest and 200 after it;
* only the service's ``modes`` are routable: its in-process methods
  (``handle``, ``ingest``, ...) are 404 on HTTP and unknown on ``/ws``.
"""

import base64
import http.client
import json
import math

import numpy as np
import pytest

from repro.core.adkmn import fit_adkmn
from repro.core.cover import ModelCover
from repro.data.tuples import TupleBatch
from repro.geo.region import RegionGrid
from repro.network.messages import ModelRequest
from repro.query.sharded import ShardedQueryEngine
from repro.server.async_server import BackgroundServer, EngineQueryService
from repro.storage.shards import ShardRouter, single_shard_router

import test_engine_equivalence as equivalence
from one_shard import protocol_service
from test_server_async import _WsClient

# Every test ends with the descriptors and threads it began with.
pytestmark = pytest.mark.usefixtures("leak_check")

HORIZON_S = 4.0 * 3600.0


def _call(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _post(port, path, payload):
    return _call(port, "POST", path, payload)


def _blob(body) -> bytes:
    assert body["mode"] == "model"
    return base64.b64decode(body["cover"])


def _mode_requests(t):
    """One valid request per mode at time ``t``."""
    return {
        "point": {"t": t, "x": 2000.0, "y": 1500.0},
        "continuous": {"route": [[1000.0, 1000.0], [3000.0, 2200.0]], "t_start": t},
        "heatmap": {"t": t, "bounds": [0, 0, 6000, 4000], "nx": 4, "ny": 3},
        "model": {"t": t, "x": 2000.0, "y": 1500.0},
    }


class TestModelMode:
    def test_one_shard_blob_is_the_protocol_oracle(self):
        rng = np.random.default_rng(5)
        stream = equivalence.make_stream(rng, 7 * equivalence.H + 5)
        service = protocol_service(h=equivalence.H)
        service.ingest(stream)
        t0, t1 = float(stream.t[0]), float(stream.t[-1])
        requests = [
            ModelRequest(t=t0 + frac * (t1 - t0), x=x, y=y)
            for frac, x, y in [
                (-0.1, 0.0, 0.0), (0.0, 3000.0, 2000.0), (0.31, -9000.0, 11000.0),
                (0.5, 15000.0, -7000.0), (0.77, 10.0, 10.0), (1.0, 5999.0, 3999.0),
                (1.1, 0.0, 0.0),
            ]
        ]
        want = equivalence.reference_protocol(stream, requests)
        with BackgroundServer(service) as served:
            for request, blob in zip(requests, want):
                params = {"t": request.t, "x": request.x, "y": request.y}
                status, body = _post(served.port, "/query/model", params)
                assert status == 200, body
                assert _blob(body) == blob
                assert service.handle(request).blob == blob
        assert service.engine.metrics["served"].covers == 2 * len(requests)

    def test_four_shards_serve_the_owner_slices_cover(self, small_dataset):
        router = ShardRouter(
            RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4), h=240
        )
        router.ingest(small_dataset.tuples)
        engine = ShardedQueryEngine(router)
        service = EngineQueryService(engine)  # the web modes' method is moot
        checked = 0
        with BackgroundServer(service) as served:
            for row in (100, 1500, 3000, len(small_dataset.tuples) - 1):
                t = float(small_dataset.tuples.t[row])
                c = int(router.windows_for_times((t,))[0])
                for s in range(router.n_shards):
                    rows = router.shard_window(s, c)
                    if not len(rows):
                        continue
                    x, y = float(rows.x[-1]), float(rows.y[-1])
                    status, body = _post(
                        served.port, "/query/model", {"t": t, "x": x, "y": y}
                    )
                    assert status == 200, body
                    want = fit_adkmn(
                        rows,
                        engine.config,
                        valid_until=float(rows.t[-1]) + HORIZON_S,
                        window_c=c,
                    ).cover
                    assert _blob(body) == want.to_blob()
                    checked += 1
        assert checked >= 8

    def test_empty_owner_slice_is_a_404(self, small_batch):
        grid = RegionGrid.for_shard_count(equivalence.DATA_BOUNDS, 4)
        router = ShardRouter(grid, h=240)
        rows = small_batch.slice(0, 300)
        x0, y0 = grid.bounds.min_x, grid.bounds.min_y
        router.ingest(TupleBatch(rows.t, np.full(300, x0), np.full(300, y0), rows.s))
        service = EngineQueryService(ShardedQueryEngine(router), method="model-cover")
        t = float(rows.t[-1])
        with BackgroundServer(service) as served:
            far = {"t": t, "x": grid.bounds.max_x, "y": grid.bounds.max_y}
            status, body = _post(served.port, "/query/model", far)
            assert status == 404 and "no rows" in body["error"]
            status, _ = _post(served.port, "/query/model", {"t": t, "x": x0, "y": y0})
            assert status == 200
        assert service.engine.metrics["served"].covers == 1

    def test_websocket_model_mode_is_the_http_answer(self, small_batch):
        service = protocol_service(h=240)
        service.ingest(small_batch)
        params = {"t": float(small_batch.t[700]), "x": 2000.0, "y": 1500.0}
        with BackgroundServer(service) as served:
            _, over_http = _post(served.port, "/query/model", params)
            client = _WsClient(served.port)
            try:
                over_ws = client.request({"mode": "model", **params})
            finally:
                client.close()
        assert over_ws == over_http
        cover = ModelCover.from_blob(_blob(over_ws))
        assert cover.valid_until == float(small_batch.t[719]) + HORIZON_S

    @pytest.mark.parametrize("missing", ["t", "x", "y"])
    def test_a_missing_field_is_a_400(self, small_batch, missing):
        service = protocol_service(h=240)
        service.ingest(small_batch.slice(0, 500))
        params = {"t": float(small_batch.t[400]), "x": 2000.0, "y": 1500.0}
        del params[missing]
        with BackgroundServer(service) as served:
            status, body = _post(served.port, "/query/model", params)
        assert status == 400 and f"'{missing}'" in body["error"]
        assert service.engine.metrics["served"].covers == 0


class TestNoDataYet:
    """An empty store is the service's state, not its failure."""

    @pytest.mark.parametrize("method", ["naive", "model-cover"])
    def test_every_mode_is_503_before_ingest_and_200_after(self, small_batch, method):
        engine = ShardedQueryEngine(single_shard_router(240))
        service = EngineQueryService(engine, method=method)
        requests = _mode_requests(float(small_batch.t[100]))
        assert set(requests) == set(service.modes)
        with BackgroundServer(service) as served:
            for mode, params in requests.items():
                status, body = _post(served.port, f"/query/{mode}", params)
                assert (status, body) == (503, {"error": "no data yet"}), mode
            client = _WsClient(served.port)
            try:
                for mode, params in requests.items():
                    reply = client.request({"mode": mode, **params})
                    assert reply == {"error": "no data yet"}, mode
                service.ingest(small_batch.slice(0, 500))
                for mode, params in requests.items():
                    reply = client.request({"mode": mode, **params})
                    assert reply["mode"] == mode, reply
            finally:
                client.close()
            for mode, params in requests.items():
                status, body = _post(served.port, f"/query/{mode}", params)
                assert status == 200 and body["mode"] == mode, (mode, body)

    def test_a_bad_request_is_still_a_400_on_an_empty_store(self):
        service = EngineQueryService(ShardedQueryEngine(single_shard_router(240)))
        with BackgroundServer(service) as served:
            for mode in service.modes:
                status, _ = _post(served.port, f"/query/{mode}", {"t": math.nan})
                assert status == 400, mode

    def test_the_engine_keeps_its_runtime_error(self):
        """Only the front end says 503; the in-process protocol on an
        empty store still raises the engine's ``RuntimeError``."""
        service = protocol_service(h=240)
        with pytest.raises(RuntimeError):
            service.handle(ModelRequest(t=0.0, x=0.0, y=0.0))


class TestOnlyModesAreRoutable:
    IN_PROCESS = ["handle", "handle_many", "ingest", "handle_with_epoch", "cached"]

    @pytest.fixture()
    def served(self, small_batch):
        service = protocol_service(h=240)
        service.ingest(small_batch.slice(0, 500))
        with BackgroundServer(service) as background:
            yield background

    def test_health_lists_the_modes(self, served):
        status, body = _call(served.port, "GET", "/health")
        assert status == 200
        assert body["modes"] == ["point", "continuous", "heatmap", "model"]

    @pytest.mark.parametrize("name", IN_PROCESS)
    def test_in_process_methods_are_404_over_http(self, served, name):
        before = served.server.service.engine.router.global_count()
        status, body = _post(served.port, f"/query/{name}", {"t": 0.0, "x": 0.0, "y": 0.0})
        assert (status, body) == (404, {"error": f"unknown mode {name!r}"})
        assert served.server.service.engine.router.global_count() == before

    def test_in_process_methods_are_unknown_over_websocket(self, served):
        client = _WsClient(served.port)
        try:
            for name in self.IN_PROCESS:
                reply = client.request({"mode": name, "t": 0.0, "x": 0.0, "y": 0.0})
                assert reply == {"error": f"unknown mode {name!r}"}
        finally:
            client.close()
