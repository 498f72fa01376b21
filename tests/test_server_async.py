"""Tests for repro.server.async_server — the network front end.

Exercised over real sockets: HTTP via :mod:`http.client`, WebSocket via
a hand-rolled RFC 6455 client on a raw socket (the stdlib has no WS
client), both against a server bound to an ephemeral 127.0.0.1 port.
"""

import base64
import hashlib
import http.client
import json
import socket
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
import repro.query.sharded as sharded_module
from repro.query.pipeline.parallel import ProcessShardedEngine
import repro.query.continuous as continuous_module
import repro.server.async_server as async_module
from repro.query.sharded import CACHED_ROUTE_MAX_ROWS, ShardedQueryEngine
from repro.server.async_server import (
    BackgroundServer,
    EngineQueryService,
    _response,
)
from repro.storage.shards import ShardRouter

from one_shard import one_shard_engine
from rows_entries import cache_rows, uncached_windows

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

# Every test ends with the descriptors and threads it began with: the
# server's loop thread and worker threads joined, its sockets closed.
pytestmark = pytest.mark.usefixtures("leak_check")


@pytest.fixture(scope="module")
def engine(small_batch):
    return one_shard_engine(small_batch, h=240)


@pytest.fixture()
def served(engine):
    with BackgroundServer(EngineQueryService(engine, method="model-cover")) as background:
        yield background


@pytest.fixture(scope="module")
def t_mid(small_batch):
    return float(small_batch.t[500])


def _post(port, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHttpRoutes:
    def test_health(self, served):
        status, body = _get(served.port, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert set(body["modes"]) == {"point", "continuous", "heatmap", "model"}

    def test_point_query_matches_in_process(self, served, engine, t_mid):
        status, body = _post(
            served.port, "/query/point", {"t": t_mid, "x": 2000.0, "y": 1500.0}
        )
        assert status == 200
        expected = engine.point_query(t_mid, 2000.0, 1500.0, method="model-cover")
        assert body == {
            "mode": "point", "value": expected.value, "support": expected.support
        }

    def test_point_query_on_negative_extrapolation_is_answered(
        self, served, small_batch
    ):
        """A valid, finite point far off the data where the model
        extrapolates below zero is a 200 with the raw value, not a 500."""
        t = float(small_batch.t[1000])
        status, body = _post(
            served.port, "/query/point", {"t": t, "x": -1e6, "y": -1e6}
        )
        assert status == 200
        assert body["value"] < 0.0

    def test_continuous_route(self, served, t_mid):
        status, body = _post(
            served.port,
            "/query/continuous",
            {
                "route": [[1000.0, 1000.0], [3000.0, 2200.0]],
                "t_start": t_mid,
                "updates": 8,
            },
        )
        assert status == 200
        readings = body["readings"]
        assert len(readings) == 8
        assert (readings[0]["x"], readings[0]["y"]) == (1000.0, 1000.0)
        assert all(r["value"] is not None and r["support"] >= 1 for r in readings)

    def test_heatmap_grid(self, served, engine, t_mid):
        status, body = _post(
            served.port,
            "/query/heatmap",
            {"t": t_mid, "bounds": [0, 0, 6000, 4000], "nx": 10, "ny": 8},
        )
        assert status == 200
        grid = np.array(body["grid"], dtype=float)
        assert grid.shape == (8, 10)
        expected = engine.heatmap_grid(
            t_mid, BoundingBox(0, 0, 6000, 4000), nx=10, ny=8, method="model-cover"
        )
        assert np.array_equal(grid, expected)

    def test_keep_alive_serves_sequential_requests(self, served, t_mid):
        conn = http.client.HTTPConnection("127.0.0.1", served.port, timeout=30)
        try:
            for _ in range(3):
                conn.request(
                    "POST",
                    "/query/point",
                    body=json.dumps({"t": t_mid, "x": 2000.0, "y": 1500.0}),
                )
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
        finally:
            conn.close()

    def test_unknown_route_is_404(self, served):
        status, body = _get(served.port, "/nope")
        assert status == 404
        assert "error" in body

    def test_unknown_mode_is_404(self, served):
        status, body = _post(served.port, "/query/teleport", {"t": 0})
        assert status == 404

    def test_malformed_json_is_400(self, served):
        conn = http.client.HTTPConnection("127.0.0.1", served.port, timeout=30)
        try:
            conn.request("POST", "/query/point", body="{not json")
            response = conn.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            conn.close()

    def test_missing_field_is_400(self, served):
        status, body = _post(served.port, "/query/point", {"t": 0.0, "x": 1.0})
        assert status == 400
        assert "'y'" in body["error"]


class _WsClient:
    """Minimal RFC 6455 client: handshake + masked text frames."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        key = base64.b64encode(b"0123456789abcdef").decode()
        self.sock.sendall(
            (
                "GET /ws HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n"
                "\r\n"
            ).encode()
        )
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            chunk = self.sock.recv(4096)
            assert chunk, "server closed during handshake"
            head += chunk
        assert b"101" in head.split(b"\r\n", 1)[0]
        expected = base64.b64encode(
            hashlib.sha1((key + _WS_GUID).encode()).digest()
        ).decode()
        assert f"Sec-WebSocket-Accept: {expected}".encode() in head

    def _recv_exactly(self, n):
        data = b""
        while len(data) < n:
            chunk = self.sock.recv(n - len(data))
            assert chunk, "server closed mid-frame"
            data += chunk
        return data

    def send_frame(self, opcode, payload):
        mask = b"\x11\x22\x33\x44"
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        head = bytes([0x80 | opcode])
        n = len(payload)
        if n < 126:
            head += bytes([0x80 | n])
        else:
            head += bytes([0x80 | 126]) + struct.pack(">H", n)
        self.sock.sendall(head + mask + masked)

    def recv_frame(self):
        b0, b1 = self._recv_exactly(2)
        assert not (b1 & 0x80), "server frames must be unmasked"
        length = b1 & 0x7F
        if length == 126:
            (length,) = struct.unpack(">H", self._recv_exactly(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", self._recv_exactly(8))
        return b0 & 0x0F, self._recv_exactly(length)

    def request(self, payload):
        self.send_frame(0x1, json.dumps(payload).encode())
        opcode, data = self.recv_frame()
        assert opcode == 0x1
        return json.loads(data)

    def close(self):
        try:
            self.send_frame(0x8, b"")
            self.recv_frame()
        except AssertionError:
            pass
        self.sock.close()


class TestWebSocket:
    def test_point_over_websocket_matches_http(self, served, t_mid):
        client = _WsClient(served.port)
        try:
            ws_body = client.request(
                {"mode": "point", "t": t_mid, "x": 2000.0, "y": 1500.0}
            )
        finally:
            client.close()
        _, http_body = _post(
            served.port, "/query/point", {"t": t_mid, "x": 2000.0, "y": 1500.0}
        )
        assert ws_body == http_body

    def test_session_serves_multiple_modes(self, served, t_mid):
        client = _WsClient(served.port)
        try:
            point = client.request(
                {"mode": "point", "t": t_mid, "x": 2000.0, "y": 1500.0}
            )
            heatmap = client.request(
                {
                    "mode": "heatmap",
                    "t": t_mid,
                    "bounds": [0, 0, 6000, 4000],
                    "nx": 6,
                    "ny": 4,
                }
            )
        finally:
            client.close()
        assert point["mode"] == "point"
        assert np.array(heatmap["grid"]).shape == (4, 6)

    def test_ping_pong(self, served):
        client = _WsClient(served.port)
        try:
            client.send_frame(0x9, b"hello")
            opcode, payload = client.recv_frame()
            assert (opcode, payload) == (0xA, b"hello")
        finally:
            client.close()

    def test_bad_request_gets_error_frame_not_disconnect(self, served, t_mid):
        client = _WsClient(served.port)
        try:
            bad = client.request({"mode": "teleport"})
            assert "error" in bad
            good = client.request(
                {"mode": "point", "t": t_mid, "x": 2000.0, "y": 1500.0}
            )
            assert "error" not in good
        finally:
            client.close()


class TestEngineBackends:
    """The same network front end over the sharded / process engines."""

    @pytest.fixture(scope="class", autouse=True)
    def _resource_tracker(self):
        """The process pool starts the shared-memory resource tracker,
        whose pipe lives as long as this process: start it before the
        leak check counts."""
        resource_tracker.ensure_running()

    def test_process_engine_answers_match_in_process_engine(self, small_dataset):
        def build_engine():
            router = ShardRouter(
                RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4),
                h=500,
            )
            router.ingest(small_dataset.tuples)
            return ShardedQueryEngine(router)

        oracle = build_engine()
        t = float(small_dataset.tuples.t[2000])
        bounds = small_dataset.covered_bbox()
        box = [bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y]
        with ProcessShardedEngine(build_engine(), processes=2) as facade:
            with BackgroundServer(EngineQueryService(facade)) as served:
                _, point = _post(
                    served.port,
                    "/query/point",
                    {"t": t, "x": 2000.0, "y": 1500.0},
                )
                _, heatmap = _post(
                    served.port,
                    "/query/heatmap",
                    {"t": t, "bounds": box, "nx": 6, "ny": 4},
                )
                assert facade.executor.fallbacks == 0
        expected_point = oracle.point_query(t, 2000.0, 1500.0)
        assert point["value"] == pytest.approx(expected_point.value)
        assert point["support"] == expected_point.support
        expected_grid = oracle.heatmap_grid(t, bounds, nx=6, ny=4)
        got = np.array(
            [[np.nan if v is None else v for v in row] for row in heatmap["grid"]]
        )
        assert np.array_equal(got, expected_grid, equal_nan=True)
        oracle.close()


class _ThreadSpy(EngineQueryService):
    """Records which thread ran ``cached`` (when it answered),
    ``point`` and ``continuous``."""

    def __init__(self, engine, method):
        super().__init__(engine, method=method)
        self.cached_on = []
        self.point_on = []
        self.continuous_on = []

    def cached(self, mode, params):
        payload = super().cached(mode, params)
        if payload is not None:
            self.cached_on.append(threading.get_ident())
        return payload

    def point(self, params):
        self.point_on.append(threading.get_ident())
        return super().point(params)

    def continuous(self, params):
        self.continuous_on.append(threading.get_ident())
        return super().continuous(params)


class TestCachedLane:
    """A confirmed cover hit is answered on the event-loop thread; every
    other request still goes through the executor."""

    @pytest.fixture()
    def lane(self, small_dataset):
        router = ShardRouter(
            RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4), h=240
        )
        router.ingest(small_dataset.tuples)
        with ShardedQueryEngine(router) as engine:
            spy = _ThreadSpy(engine, method="model-cover")
            with BackgroundServer(spy) as served:
                yield served, spy, engine

    @staticmethod
    def _covered_point(small_dataset, row):
        """A request at a tuple's own position: its owner slice is not empty."""
        tuples = small_dataset.tuples
        return {
            "t": float(tuples.t[row]),
            "x": float(tuples.x[row]),
            "y": float(tuples.y[row]),
        }

    def test_miss_hops_and_hit_stays_on_the_loop(self, lane, small_dataset):
        served, spy, engine = lane
        loop_thread = served._thread.ident
        p = self._covered_point(small_dataset, 3000)
        status, cold = _post(served.port, "/query/point", p)
        assert status == 200
        # No cover was cached: the query (and its fit) ran on a pool thread.
        assert spy.cached_on == []
        assert len(spy.point_on) == 1 and spy.point_on[0] != loop_thread
        plans, hits = engine.prune_stats.plans, engine.cache_stats.hits
        assert plans >= 1
        status, warm = _post(served.port, "/query/point", p)
        assert (status, warm) == (200, cold)
        assert spy.cached_on == [loop_thread]
        assert len(spy.point_on) == 1  # the handler was never dispatched
        assert engine.prune_stats.plans == plans  # no plan was built
        assert engine.cache_stats.hits == hits + 1
        client = _WsClient(served.port)
        try:
            assert client.request({"mode": "point", **p}) == cold
        finally:
            client.close()
        assert spy.cached_on == [loop_thread, loop_thread]
        assert len(spy.point_on) == 1

    def test_cached_answers_do_not_queue_behind_a_cold_fit(
        self, lane, small_dataset, monkeypatch
    ):
        """ROADMAP item 2's gate, as an ordering: with the only pool
        thread stuck in a cold-cover fit, ``/health`` and a cached point
        query on other connections are answered before the fit may end."""
        served, spy, engine = lane
        warm = self._covered_point(small_dataset, 3000)
        cold = self._covered_point(small_dataset, 600)
        assert _post(served.port, "/query/point", warm)[0] == 200
        pool = ThreadPoolExecutor(max_workers=1)
        served._loop.call_soon_threadsafe(served._loop.set_default_executor, pool)
        entered, release = threading.Event(), threading.Event()
        real_fit = sharded_module.fit_adkmn

        def blocked_fit(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=60.0)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(sharded_module, "fit_adkmn", blocked_fit)
        slow = []
        poster = threading.Thread(
            target=lambda: slow.append(_post(served.port, "/query/point", cold)),
            daemon=True,
        )
        order = []
        try:
            poster.start()
            assert entered.wait(timeout=30.0)
            assert _get(served.port, "/health")[0] == 200
            order.append("health")
            assert _post(served.port, "/query/point", warm)[0] == 200
            order.append("cached point")
            assert slow == []  # the cold query is still inside its fit
        finally:
            order.append("release")
            release.set()
            poster.join(timeout=60.0)
            pool.shutdown(wait=True)
        assert order == ["health", "cached point", "release"]
        assert not poster.is_alive() and slow[0][0] == 200
        assert len(spy.cached_on) == 1  # only the warm repeat took the lane

    @staticmethod
    def _routes(small_dataset, n, seed, updates=30):
        """Seeded route requests in the style of the live mix: four
        sensed positions 30 rows apart, 30 minutes from a sensed time."""
        tuples = small_dataset.tuples
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            i = int(rng.integers(0, len(tuples) - 120))
            out.append({
                "route": [[float(tuples.x[i + 30 * k]), float(tuples.y[i + 30 * k])] for k in range(4)],
                "t_start": float(tuples.t[i]) + float(rng.uniform(0.0, 3600.0)),
                "duration_s": 1800.0,
                "updates": updates,
            })  # fmt: skip
        return out

    def test_route_sweep_is_the_pinned_paths_response_bytes(self, lane, small_dataset):
        """2 000 routes: once the pinned path has answered a route, the
        lane answers it — an empty owner slice's rows from the window's
        cached rows — in the forced pinned path's response, byte for
        byte, and declines none of them."""
        _served, spy, engine = lane
        router = engine.router
        empty_owner = 0
        for params in self._routes(small_dataset, 2000, seed=23):
            slow = _response(200, spy.continuous(dict(params)), close=False)
            batch = async_module._route_batch(dict(params))
            assert not uncached_windows(engine, batch)
            payload = spy.cached("continuous", dict(params))
            assert payload is not None
            assert _response(200, payload, close=False) == slow
            owners = router.grid.shards_of(batch.x, batch.y).tolist()
            windows = router.windows_for_times(batch.t).tolist()
            empty_owner += any(
                not router.shard_window_epoch(s, c) for s, c in zip(owners, windows)
            )
        assert engine.lane_hits["route"] == 2000
        assert not engine.lane_declines
        assert empty_owner > 50

    def test_a_large_h_keeps_a_large_tile_off_the_loop(self, small_dataset):
        """A model-cover service over h = 2000 windows, with a sealed
        window's rows cached: a route of 16 updates through an empty
        owner slice there is a 32 000-cell tile over its 2 000 rows,
        within the exact gather's block, and is answered on the loop;
        one of 30 updates (60 000 cells) is answered on the executor
        every time."""
        tuples = small_dataset.tuples
        grid = RegionGrid.for_shard_count(BoundingBox(0.0, 0.0, 6000.0, 4000.0), 4)
        router = ShardRouter(grid, h=2000)
        router.ingest(tuples)
        t = float(tuples.t[3000])
        c = router.window_for_time(t)
        assert sum(len(sub) for sub in router.shard_windows(c)) == 2000
        owner = next(s for s in range(4) if not router.shard_window_epoch(s, c))
        box = grid.region(owner).bounds
        y = (box.min_y + box.max_y) / 2
        route = [[box.min_x + 1.0, y], [box.max_x - 1.0, y]]
        with ShardedQueryEngine(router) as engine:
            cache_rows(engine, c)
            spy = _ThreadSpy(engine, method="model-cover")
            with BackgroundServer(spy) as served:
                answers = []
                for updates in (16, 30):
                    params = {"route": route, "t_start": t, "duration_s": 60.0, "updates": updates}
                    status, body = _post(served.port, "/query/continuous", params)
                    assert status == 200 and len(body["readings"]) == updates
                    answers.append(body)
                assert spy.cached_on == [served._thread.ident]  # the 16-update route
                assert len(spy.continuous_on) == 1  # the 30-update one
                assert engine.lane_hits == {"route": 1}
                assert engine.lane_declines == {("route", "fallback"): 1}
                for body, updates in zip(answers, (16, 30)):
                    params = {"route": route, "t_start": t, "duration_s": 60.0, "updates": updates}
                    assert _response(200, spy.continuous(params), close=False) == (
                        _response(200, body, close=False)
                    )

    def test_route_hit_stays_on_the_loop(self, lane, small_dataset):
        served, spy, engine = lane
        loop_thread = served._thread.ident
        params = self._routes(small_dataset, 1, seed=5)[0]
        status, cold = _post(served.port, "/query/continuous", params)
        assert status == 200 and spy.continuous_on[0] != loop_thread
        plans = engine.prune_stats.plans
        status, warm = _post(served.port, "/query/continuous", params)
        assert (status, warm) == (200, cold)
        assert spy.cached_on == [loop_thread] and len(spy.continuous_on) == 1
        assert engine.prune_stats.plans == plans

    def test_a_declined_route_builds_its_batch_once(
        self, lane, small_dataset, monkeypatch
    ):
        served, spy, engine = lane
        loop_thread = served._thread.ident
        builds = []
        real = continuous_module.uniform_route_batch

        def counted(*args, **kwargs):
            builds.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(continuous_module, "uniform_route_batch", counted)
        params = self._routes(small_dataset, 1, seed=5)[0]
        status, body = _post(served.port, "/query/continuous", params)  # cold covers
        assert status == 200 and len(body["readings"]) == 30
        assert engine.lane_declines == {("route", "cover"): 1}
        # Built once, on the loop; the pool answered from that batch.
        assert builds == [loop_thread]
        assert len(spy.continuous_on) == 1 and spy.continuous_on[0] != loop_thread

    @staticmethod
    def _long_route(small_dataset, waypoints):
        """A 30-update route through ``waypoints`` sensed positions."""
        tuples = small_dataset.tuples
        return {
            "route": [[float(tuples.x[i]), float(tuples.y[i])] for i in range(0, 5 * waypoints, 5)],
            "t_start": float(tuples.t[0]),
            "duration_s": 1800.0,
            "updates": 30,
        }  # fmt: skip

    @pytest.mark.parametrize("shape", ["rows", "waypoints"])
    def test_a_route_above_the_cap_is_built_on_the_executor(
        self, lane, small_dataset, monkeypatch, shape
    ):
        """More updates than the row cap, or more waypoints than the loop
        builds: validated, interpolated and answered on the pool only —
        the lane is not asked, so nothing of the route runs on the loop."""
        served, spy, engine = lane
        loop_thread = served._thread.ident
        builds = []
        real = continuous_module.uniform_route_batch

        def counted(*args, **kwargs):
            builds.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(continuous_module, "uniform_route_batch", counted)
        if shape == "rows":
            params = self._routes(small_dataset, 1, seed=5, updates=CACHED_ROUTE_MAX_ROWS + 1)[0]
        else:
            params = self._long_route(small_dataset, async_module._LANE_MAX_WAYPOINTS + 1)
        for _ in range(2):  # the second time every cover it needs is cached
            status, body = _post(served.port, "/query/continuous", params)
            assert status == 200 and len(body["readings"]) == params["updates"]
        assert spy.cached_on == []
        assert len(spy.continuous_on) == 2 and loop_thread not in spy.continuous_on
        assert len(builds) == 2 and loop_thread not in builds
        assert not engine.lane_hits and not engine.lane_declines

    def test_a_route_at_the_waypoint_bound_takes_the_lane(self, lane, small_dataset):
        served, spy, engine = lane
        loop_thread = served._thread.ident
        params = self._long_route(small_dataset, async_module._LANE_MAX_WAYPOINTS)
        status, cold = _post(served.port, "/query/continuous", params)
        assert status == 200 and spy.cached_on == []
        assert _post(served.port, "/query/continuous", params) == (200, cold)
        assert spy.cached_on == [loop_thread] and engine.lane_hits == {"route": 1}

    def test_a_long_malformed_route_is_refused_on_the_executor(self, lane):
        served, spy, _engine = lane
        loop_thread = served._thread.ident
        params = {"route": [[0.0, 0.0]] * 1000 + [["x", 0.0]], "t_start": 0.0}
        status, body = _post(served.port, "/query/continuous", params)
        assert status == 400 and "route points" in body["error"]
        assert spy.continuous_on and loop_thread not in spy.continuous_on

    def test_other_methods_never_build_a_route_on_the_loop(
        self, small_dataset, monkeypatch
    ):
        router = ShardRouter(
            RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4), h=240
        )
        router.ingest(small_dataset.tuples)
        builds = []
        real = continuous_module.uniform_route_batch

        def counted(*args, **kwargs):
            builds.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(continuous_module, "uniform_route_batch", counted)
        with ShardedQueryEngine(router) as engine:
            spy = _ThreadSpy(engine, method="naive")
            with BackgroundServer(spy) as served:
                params = self._routes(small_dataset, 1, seed=5)[0]
                for _ in range(2):
                    assert _post(served.port, "/query/continuous", params)[0] == 200
                loop_thread = served._thread.ident
            assert len(builds) == 2 and loop_thread not in builds
            assert not engine.lane_hits and not engine.lane_declines

    def test_each_point_request_is_counted_once(self, lane, small_dataset):
        """A declined point is one decline (the pool does not ask the lane
        again), a lane answer one hit."""
        served, _spy, engine = lane
        p = self._covered_point(small_dataset, 3000)
        status, cold = _post(served.port, "/query/point", p)
        assert status == 200
        assert engine.lane_declines == {("point", "cover"): 1}
        assert not engine.lane_hits
        assert _post(served.port, "/query/point", p) == (200, cold)
        assert engine.lane_declines == {("point", "cover"): 1}
        assert engine.lane_hits == {"point": 1}

    def test_other_methods_never_ask_the_lane(self, small_dataset):
        router = ShardRouter(
            RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4), h=240
        )
        router.ingest(small_dataset.tuples)
        with ShardedQueryEngine(router) as engine:
            with BackgroundServer(EngineQueryService(engine, method="naive")) as served:
                p = self._covered_point(small_dataset, 3000)
                for _ in range(2):
                    assert _post(served.port, "/query/point", p)[0] == 200
            assert not engine.lane_hits and not engine.lane_declines
