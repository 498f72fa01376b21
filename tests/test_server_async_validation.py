"""Regression tests for the async front end's input validation and
WebSocket framing.

Each class pins one formerly wrong behaviour (all four were 500s or
silent connection teardowns before being fixed):

* non-numeric ``Content-Length`` → uncaught ``ValueError`` killed the
  connection with no response at all;
* invalid ``duration_s`` escaped ``float()``/``waypoint_trajectory`` as
  a 500 on both services;
* ``_optional_int`` had no upper bound — one heatmap request could ask
  for a terabyte-scale grid;
* the frame reader ignored FIN and dropped continuation frames, silently
  corrupting fragmented WebSocket messages;
* ``NaN`` / ``Infinity`` (which ``json.loads`` accepts) were evaluated —
  a cover at a NaN time, an undefined float->int cast in the region grid
  — and an integer literal above float range was a 500;
* the frame reader unmasked payloads one byte at a time on the event loop.

``RuntimeWarning`` is an error in this file: the undefined cast only
ever announced itself as one.
"""

import asyncio
import base64
import hashlib
import http.client
import json
import re
import socket
import struct
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.obs import Metrics
from repro.query.base import QueryBatch
from repro.query.indexed import available_index_kinds
from repro.query.sharded import ShardedQueryEngine
from repro.query.subscriptions import SubscriptionSpec, registry_for
from repro.server.async_server import (
    AsyncQueryServer,
    BackgroundServer,
    EngineQueryService,
    HttpError,
    _HttpConnection,
    _clean,
    _route_batch,
    _MAX_BODY,
    _MAX_HEADER,
    _unmask,
)
from repro.storage.shards import ShardRouter

from one_shard import one_shard_engine

# A test also ends with the descriptors and threads it began with: the
# server's loop thread and worker threads joined, its sockets closed.
pytestmark = [
    pytest.mark.filterwarnings("error::RuntimeWarning"),
    pytest.mark.usefixtures("leak_check"),
]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


@pytest.fixture()
def one_shard_served(small_batch):
    """A ``naive`` service over a one-shard engine: no cached lane, so
    every query takes the executor hop."""
    service = EngineQueryService(one_shard_engine(small_batch, h=240))
    with BackgroundServer(service) as background:
        yield background


@pytest.fixture()
def engine_served(small_batch):
    """An engine service with a live subscription registry and a
    held-back tail so tests can drive ingest themselves."""
    pad = 500.0
    bbox = BoundingBox(
        float(small_batch.x.min()) - pad,
        float(small_batch.y.min()) - pad,
        float(small_batch.x.max()) + pad,
        float(small_batch.y.max()) + pad,
    )
    cut = int(0.8 * len(small_batch))
    router = ShardRouter(RegionGrid(bbox, nx=2, ny=2), h=240)
    router.ingest(small_batch.slice(0, cut))
    engine = ShardedQueryEngine(router)
    registry = registry_for(engine)
    service = EngineQueryService(engine, subscriptions=registry)
    with BackgroundServer(service) as background:
        yield background, router, registry, cut


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


def _raw_exchange(port, request: bytes):
    """Send raw bytes, read until the server closes the connection."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    try:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk
    finally:
        sock.close()


class TestContentLengthValidation:
    @pytest.mark.parametrize(
        "value", ["banana", "-5", "+10", "1_0", "0x10", "12 34"]
    )
    def test_malformed_content_length_is_a_400_not_a_hangup(
        self, one_shard_served, value
    ):
        response = _raw_exchange(
            one_shard_served.port,
            (
                f"POST /query/point HTTP/1.1\r\n"
                f"Host: t\r\n"
                f"Content-Length: {value}\r\n"
                f"\r\n"
            ).encode(),
        )
        # Before the fix the int() call raised and the connection died
        # with zero bytes written.
        assert response.startswith(b"HTTP/1.1 400"), response[:60]
        assert b"Content-Length" in response

    def test_valid_content_length_still_served(self, one_shard_served, t_mid):
        status, _body = _post(
            one_shard_served.port, "/query/point", {"t": t_mid, "x": 2000.0, "y": 1500.0}
        )
        assert status == 200


_BAD_DURATIONS = ["soon", 0, -600.0, True, float("nan"), float("inf"), 10**400]


class TestDurationValidation:
    @pytest.mark.parametrize("duration", _BAD_DURATIONS)
    def test_one_shard_service_rejects_bad_duration(
        self, one_shard_served, t_mid, duration
    ):
        status, body = _post(
            one_shard_served.port,
            "/query/continuous",
            {
                "route": [[1000.0, 1000.0], [3000.0, 2200.0]],
                "t_start": t_mid,
                "duration_s": duration,
            },
        )
        assert status == 400, body
        assert "duration_s" in body["error"]

    @pytest.mark.parametrize("duration", _BAD_DURATIONS)
    def test_engine_service_rejects_bad_duration(
        self, engine_served, t_mid, duration
    ):
        served, _router, _registry, _cut = engine_served
        status, body = _post(
            served.port,
            "/query/continuous",
            {
                "route": [[1000.0, 1000.0], [3000.0, 2200.0]],
                "t_start": t_mid,
                "duration_s": duration,
            },
        )
        assert status == 400, body
        assert "duration_s" in body["error"]

    def test_valid_duration_still_served(self, one_shard_served, t_mid):
        status, body = _post(
            one_shard_served.port,
            "/query/continuous",
            {
                "route": [[1000.0, 1000.0], [3000.0, 2200.0]],
                "t_start": t_mid,
                "duration_s": 600.0,
                "updates": 4,
            },
        )
        assert status == 200
        assert len(body["readings"]) == 4


#: What ``json.loads`` hands over for ``NaN``, ``Infinity``, ``-Infinity``
#: (``1e400`` reads as the latter two), a 400-digit integer and ``true``.
_BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), True]


def _bad_number_requests(t_mid):
    """``(path, payload)`` with one numeric field replaced by each bad value."""
    point = {"t": t_mid, "x": 2000.0, "y": 1500.0}
    route = {"route": [[1000.0, 1000.0], [3000.0, 2200.0]], "t_start": t_mid}
    heatmap = {"t": t_mid, "bounds": [0, 0, 6000, 4000], "nx": 4, "ny": 3}
    for bad in _BAD_NUMBERS:
        for key in point:
            yield "/query/point", {**point, key: bad}
            yield "/query/model", {**point, key: bad}
        yield "/query/continuous", {**route, "t_start": bad}
        for i in range(2):
            for j in range(2):
                points = [list(xy) for xy in route["route"]]
                points[i][j] = bad
                yield "/query/continuous", {**route, "route": points}
        yield "/query/heatmap", {**heatmap, "t": bad}
        for i in range(4):
            bounds = list(heatmap["bounds"])
            bounds[i] = bad
            yield "/query/heatmap", {**heatmap, "bounds": bounds}


class TestNonFiniteNumbers:
    def _sweep(self, port, t_mid):
        for path, payload in _bad_number_requests(t_mid):
            status, body = _post(port, path, payload)
            assert status == 400, (path, payload, body)
            assert "error" in body

    def test_one_shard_service_refuses_them(self, one_shard_served, t_mid):
        self._sweep(one_shard_served.port, t_mid)

    def test_engine_service_refuses_them(self, engine_served, t_mid):
        self._sweep(engine_served[0].port, t_mid)

    def test_finite_numbers_are_still_served(self, engine_served, t_mid):
        served = engine_served[0]
        for path, payload in (
            ("/query/point", {"t": int(t_mid), "x": 2000, "y": 1.5e3}),
            (
                "/query/heatmap",
                {"t": t_mid, "bounds": [0, 0.0, 6e3, 4000], "nx": 4, "ny": 3},
            ),
        ):
            status, body = _post(served.port, path, payload)
            assert status == 200, body

    def test_websocket_answers_an_error_frame(self, engine_served, t_mid):
        client = _WsClient(engine_served[0].port)
        try:
            for bad in _BAD_NUMBERS:
                reply = client.request(
                    {"mode": "point", "t": t_mid, "x": bad, "y": 1500.0}
                )
                assert "'x'" in reply["error"]
            good = client.request(
                {"mode": "point", "t": t_mid, "x": 2000.0, "y": 1500.0}
            )
            assert good["mode"] == "point"
        finally:
            client.close()

    @pytest.mark.parametrize("bad", _BAD_NUMBERS)
    @pytest.mark.parametrize("key", ["t", "x", "y"])
    def test_refused_before_the_cached_lane(self, engine_served, t_mid, key, bad):
        """The lane runs on the event loop: it validates first."""
        engine = engine_served[0].server.service.engine
        service = EngineQueryService(engine, method="model-cover")
        params = {"t": t_mid, "x": 2000.0, "y": 1500.0, key: bad}
        with pytest.raises(HttpError) as refused:
            service.cached("point", params)
        assert refused.value.status == 400


#: Routes whose numbers are all finite but that cannot be interpolated:
#: a start time at which adding the duration changes nothing (an empty
#: float time span — "t_end must be after t_start" was a 500), and
#: waypoints far enough apart that the leg length overflows to inf (the
#: positions became NaN, answered 200 as bare ``NaN`` tokens).
_UNINTERPOLABLE_ROUTES = [
    {"route": [[1000.0, 1000.0], [3000.0, 2200.0]], "t_start": 1e20, "duration_s": 1800.0},
    {"route": [[-1e308, 0.0], [1e308, 0.0]], "t_start": 0.0},
    {"route": [[0.0, 1e308], [0.0, 0.0], [0.0, -1e308]], "t_start": 0.0, "updates": 5},
]


class TestUninterpolableRoutes:
    def _check(self, status, body):
        assert status == 400, body
        assert "t_end" in body["error"] or "finite" in body["error"]

    @pytest.mark.parametrize("payload", _UNINTERPOLABLE_ROUTES)
    def test_one_shard_service_answers_400(self, one_shard_served, t_mid, payload):
        self._check(*_post(one_shard_served.port, "/query/continuous", payload))

    @pytest.mark.parametrize("payload", _UNINTERPOLABLE_ROUTES)
    def test_engine_service_answers_400(self, engine_served, payload):
        self._check(*_post(engine_served[0].port, "/query/continuous", payload))

    @pytest.mark.parametrize("payload", _UNINTERPOLABLE_ROUTES)
    def test_refused_before_the_cached_lane(self, engine_served, payload):
        engine = engine_served[0].server.service.engine
        service = EngineQueryService(engine, method="model-cover")
        with pytest.raises(HttpError) as refused:
            service.cached("continuous", dict(payload))
        assert refused.value.status == 400
        assert not engine.metrics["lane_hits"].as_dict()
        assert not engine.metrics["lane_declines"].as_dict()

    @pytest.mark.parametrize("payload", _UNINTERPOLABLE_ROUTES)
    def test_websocket_request_and_subscribe_are_error_frames(
        self, engine_served, payload
    ):
        served, _router, registry, _cut = engine_served
        client = _WsClient(served.port)
        try:
            for mode in ("continuous", "subscribe"):
                reply = client.request({"mode": mode, **payload})
                assert set(reply) == {"error"}, reply
                assert "t_end" in reply["error"] or "finite" in reply["error"]
        finally:
            client.close()
        assert not registry.subscription_ids()

    @pytest.mark.parametrize("payload", _UNINTERPOLABLE_ROUTES)
    def test_subscription_spec_refuses_them(self, payload):
        route = tuple(tuple(p) for p in payload["route"])
        with pytest.raises(ValueError):
            SubscriptionSpec(route, payload["t_start"], interval_s=60.0)

    def test_a_long_finite_route_still_interpolates(self):
        """Legs of 1e307 still sum to a finite length: every position is
        finite, and the request is served (a 400 is only for routes that
        cannot be interpolated)."""
        batch = _route_batch(
            {"route": [[-1e307, 0.0], [1e307, 0.0]], "t_start": 0.0, "updates": 5}
        )
        assert np.isfinite(batch.x).all() and (np.diff(batch.x) > 0).all()
        assert (batch.x[0], batch.x[-1]) == (-1e307, 1e307)
        assert batch.y.tolist() == [0.0] * 5


class TestRequestLimits:
    def test_giant_heatmap_grid_is_rejected(self, one_shard_served, t_mid):
        status, body = _post(
            one_shard_served.port,
            "/query/heatmap",
            {"t": t_mid, "bounds": [0, 0, 6000, 4000], "nx": 10**6, "ny": 10**6},
        )
        assert status == 400
        assert "nx" in body["error"]

    def test_axis_just_over_the_cap_is_rejected(self, one_shard_served, t_mid):
        status, body = _post(
            one_shard_served.port,
            "/query/heatmap",
            {"t": t_mid, "bounds": [0, 0, 6000, 4000], "nx": 4, "ny": 513},
        )
        assert status == 400
        assert "513" not in body["error"] or "ny" in body["error"]

    def test_giant_update_count_is_rejected(self, one_shard_served, t_mid):
        status, body = _post(
            one_shard_served.port,
            "/query/continuous",
            {
                "route": [[1000.0, 1000.0], [3000.0, 2200.0]],
                "t_start": t_mid,
                "updates": 10_001,
            },
        )
        assert status == 400
        assert "updates" in body["error"]


class TestKeepAliveAfter400:
    def test_connection_survives_a_400(self, one_shard_served, t_mid):
        conn = http.client.HTTPConnection("127.0.0.1", one_shard_served.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/query/continuous",
                body=json.dumps(
                    {
                        "route": [[0.0, 0.0], [1.0, 1.0]],
                        "t_start": t_mid,
                        "duration_s": -1,
                    }
                ),
            )
            response = conn.getresponse()
            assert response.status == 400
            response.read()
            # Same socket, next request: a 400 must not poison the
            # connection.
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

    def test_pipelined_requests_after_400(self, one_shard_served, t_mid):
        bad = json.dumps(
            {"route": [[0.0, 0.0], [1.0, 1.0]], "t_start": t_mid, "duration_s": 0}
        ).encode()
        good = json.dumps({"t": t_mid, "x": 2000.0, "y": 1500.0}).encode()
        request = (
            b"POST /query/continuous HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {len(bad)}\r\n\r\n".encode()
            + bad
            + b"POST /query/point HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            + f"Content-Length: {len(good)}\r\n\r\n".encode()
            + good
        )
        response = _raw_exchange(one_shard_served.port, request)
        assert response.startswith(b"HTTP/1.1 400")
        assert b"HTTP/1.1 200" in response


def _encode_frame(fin: bool, opcode: int, payload: bytes, mask: bytes) -> bytes:
    head = bytes([(0x80 if fin else 0x00) | opcode])
    n = len(payload)
    if n < 126:
        head += bytes([0x80 | n])
    elif n < 1 << 16:
        head += bytes([0x80 | 126]) + struct.pack(">H", n)
    else:
        head += bytes([0x80 | 127]) + struct.pack(">Q", n)
    masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return head + mask + masked


class _WsClient:
    """RFC 6455 client with frame-level control (fragmentation, pings)."""

    def __init__(self, port, timeout=30, rcvbuf=None):
        self.sock = socket.socket()
        if rcvbuf is not None:  # before connect: the window is set at the SYN
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(timeout)
        self.sock.connect(("127.0.0.1", port))
        key = base64.b64encode(b"fedcba9876543210").decode()
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

    def send(self, fin, opcode, payload):
        self.sock.sendall(_encode_frame(fin, opcode, payload, b"\xaa\xbb\xcc\xdd"))

    def _recv_exactly(self, n):
        data = b""
        while len(data) < n:
            chunk = self.sock.recv(n - len(data))
            assert chunk, "server closed mid-frame"
            data += chunk
        return data

    def recv_frame(self):
        b0, b1 = self._recv_exactly(2)
        assert not (b1 & 0x80), "server frames must be unmasked"
        length = b1 & 0x7F
        if length == 126:
            (length,) = struct.unpack(">H", self._recv_exactly(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", self._recv_exactly(8))
        return b0 & 0x0F, self._recv_exactly(length)

    def recv_json(self):
        opcode, data = self.recv_frame()
        assert opcode == 0x1
        return json.loads(data)

    def request(self, payload):
        self.send(True, 0x1, json.dumps(payload).encode())
        return self.recv_json()

    def closed_by_server(self):
        try:
            self.sock.settimeout(10)
            return self.sock.recv(1) == b""
        except (ConnectionError, OSError):
            return True

    def close(self):
        try:
            self.send(True, 0x8, b"")
            self.recv_frame()
        except (AssertionError, ConnectionError, OSError):
            pass
        self.sock.close()


class TestFragmentedMessages:
    def test_fragmented_request_is_reassembled(self, one_shard_served, t_mid):
        payload = json.dumps(
            {"mode": "point", "t": t_mid, "x": 2000.0, "y": 1500.0}
        ).encode()
        client = _WsClient(one_shard_served.port)
        try:
            third = len(payload) // 3
            client.send(False, 0x1, payload[:third])
            client.send(False, 0x0, payload[third : 2 * third])
            client.send(True, 0x0, payload[2 * third :])
            body = client.recv_json()
        finally:
            client.close()
        # Before the fix the continuations were dropped on the floor and
        # the truncated first fragment failed to parse.
        assert "error" not in body
        assert body["mode"] == "point"

    def test_ping_interleaved_mid_message(self, one_shard_served, t_mid):
        payload = json.dumps(
            {"mode": "point", "t": t_mid, "x": 2000.0, "y": 1500.0}
        ).encode()
        client = _WsClient(one_shard_served.port)
        try:
            half = len(payload) // 2
            client.send(False, 0x1, payload[:half])
            client.send(True, 0x9, b"heartbeat")
            opcode, pong = client.recv_frame()
            assert (opcode, pong) == (0xA, b"heartbeat")
            client.send(True, 0x0, payload[half:])
            body = client.recv_json()
            assert body["mode"] == "point"
        finally:
            client.close()

    def test_bare_continuation_is_a_protocol_error(self, one_shard_served):
        client = _WsClient(one_shard_served.port)
        client.send(True, 0x0, b"orphan")
        assert client.closed_by_server()
        client.sock.close()

    def test_fragmented_control_frame_is_a_protocol_error(self, one_shard_served):
        client = _WsClient(one_shard_served.port)
        client.send(False, 0x9, b"bad ping")
        assert client.closed_by_server()
        client.sock.close()


class TestUnmask:
    @pytest.mark.parametrize(
        "length", [*range(10), 125, 126, 65_536, 4 * 1024 * 1024]
    )
    def test_matches_the_byte_loop(self, length):
        rng = np.random.default_rng(length)
        data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        mask = rng.integers(0, 256, size=4, dtype=np.uint8).tobytes()
        reference = bytes(b ^ mask[i % 4] for i, b in enumerate(data))
        assert _unmask(data, mask) == reference
        assert _unmask(reference, mask) == data


class TestWebSocketSubscribe:
    def test_subscribe_push_unsubscribe(self, engine_served, small_batch):
        served, router, registry, cut = engine_served
        xm, ym = float(np.mean(small_batch.x)), float(np.mean(small_batch.y))
        t_tail = float(small_batch.t[cut - 1])
        client = _WsClient(served.port)
        try:
            reply = client.request(
                {
                    "mode": "subscribe",
                    "route": [[xm - 300.0, ym - 300.0], [xm + 300.0, ym + 300.0]],
                    "t_start": t_tail,
                    "interval_s": 60.0,
                    "updates": 10,
                }
            )
            assert reply["mode"] == "subscribed"
            assert reply["seq"] == 0
            assert len(reply["changes"]) == 10
            sub_id = reply["subscription"]
            state = {c["i"]: c for c in reply["changes"]}

            # The ingest-hook -> asyncio bridge: grow the store, notify,
            # and the pushed update frame arrives without any request.
            router.ingest(small_batch.slice(cut, len(small_batch)))
            registry.notify_ingest()
            update = client.recv_json()
            assert update["mode"] == "update"
            assert update["subscription"] == sub_id
            assert update["seq"] == 1
            assert update["changes"]
            for change in update["changes"]:
                state[change["i"]] = change

            # The pushed stream lands exactly on from-scratch execution.
            sub = registry.subscription(sub_id)
            ref_v, _ref_s = registry.reference_answers(sub.batch, sub.method)
            got = np.array(
                [
                    np.nan if state[i]["value"] is None else state[i]["value"]
                    for i in range(10)
                ]
            )
            assert np.array_equal(got, ref_v, equal_nan=True)
            sup = np.array([state[i]["support"] for i in range(10)])
            assert np.array_equal(
                sup, registry.reference_answers(sub.batch, sub.method)[1]
            )

            bye = client.request({"mode": "unsubscribe", "subscription": sub_id})
            assert bye == {"mode": "unsubscribed", "subscription": sub_id}
            with pytest.raises(KeyError):
                registry.subscription(sub_id)
        finally:
            client.close()

    def test_invalid_subscribe_interval_is_an_error_frame(self, engine_served):
        served, _router, _registry, _cut = engine_served
        client = _WsClient(served.port)
        try:
            reply = client.request(
                {
                    "mode": "subscribe",
                    "route": [[0.0, 0.0], [1.0, 1.0]],
                    "t_start": 0.0,
                    "interval_s": -60.0,
                }
            )
            assert "interval_s" in reply["error"]
        finally:
            client.close()

    def test_subscribe_without_registry_is_an_error_frame(self, one_shard_served):
        client = _WsClient(one_shard_served.port)
        try:
            reply = client.request(
                {
                    "mode": "subscribe",
                    "route": [[0.0, 0.0], [1.0, 1.0]],
                    "t_start": 0.0,
                }
            )
            assert "not enabled" in reply["error"]
        finally:
            client.close()

    def test_disconnect_unregisters_subscriptions(self, engine_served, small_batch):
        served, _router, registry, cut = engine_served
        xm, ym = float(np.mean(small_batch.x)), float(np.mean(small_batch.y))
        client = _WsClient(served.port)
        reply = client.request(
            {
                "mode": "subscribe",
                "route": [[xm - 200.0, ym - 200.0], [xm + 200.0, ym + 200.0]],
                "t_start": float(small_batch.t[cut - 1]),
            }
        )
        sub_id = reply["subscription"]
        client.close()
        # The session teardown must reclaim the registration.
        for _ in range(100):
            try:
                registry.subscription(sub_id)
            except KeyError:
                break
            import time

            time.sleep(0.05)
        with pytest.raises(KeyError):
            registry.subscription(sub_id)


_ONE_QUERY = QueryBatch(np.array([0.0]), np.array([100.0]), np.array([100.0]))

#: Every engine entry point that takes a method, called with one.
_ENGINE_SURFACES = {
    "plan": lambda engine, kind: engine.plan(_ONE_QUERY, kind),
    "continuous_query_batch": lambda engine, kind: engine.continuous_query_batch(
        _ONE_QUERY, kind
    ),
    "point_query": lambda engine, kind: engine.point_query(0.0, 100.0, 100.0, kind),
    "heatmap_grid": lambda engine, kind: engine.heatmap_grid(
        0.0, BoundingBox(0.0, 0.0, 1000.0, 1000.0), 2, 2, kind
    ),
}


def _refusal(kind: str) -> str:
    return f"unknown method {kind!r}; known: ('naive', 'model-cover')"


class TestIndexKindsAreRefused:
    """The engine serves the paper's two answers; an index kind is a
    per-window processor, and every surface that takes a method refuses
    it as it refuses any unknown method."""

    @pytest.fixture(scope="class")
    def engine(self, small_batch):
        grid = RegionGrid.for_shard_count(BoundingBox(0.0, 0.0, 6000.0, 4000.0), 4)
        router = ShardRouter(grid, h=240)
        router.ingest(small_batch)
        with ShardedQueryEngine(router) as engine:
            yield engine

    @pytest.mark.parametrize("surface", sorted(_ENGINE_SURFACES))
    @pytest.mark.parametrize("kind", available_index_kinds())
    def test_the_engine_refuses_it(self, kind, surface, engine):
        with pytest.raises(ValueError, match=re.escape(_refusal(kind))):
            _ENGINE_SURFACES[surface](engine, kind)

    @pytest.mark.parametrize("command", ["serve", "explain"])
    @pytest.mark.parametrize("kind", available_index_kinds())
    def test_the_cli_refuses_it(self, kind, command, capsys, monkeypatch):
        import repro.data.lausanne as lausanne

        monkeypatch.setattr(
            lausanne,
            "generate_lausanne_dataset",
            lambda *a, **k: pytest.fail("work started before validation"),
        )
        args = ["serve", "--port", "1"] if command == "serve" else [command]
        with pytest.raises(SystemExit) as exited:
            main([*args, "--method", kind])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --method: invalid choice: '{kind}'" in err

    @pytest.mark.parametrize("kind", available_index_kinds())
    def test_a_ws_subscribe_refuses_it(self, kind, engine_served):
        served, _router, _registry, _cut = engine_served
        client = _WsClient(served.port)
        try:
            reply = client.request(
                {
                    "mode": "subscribe",
                    "route": [[0.0, 0.0], [1.0, 1.0]],
                    "t_start": 0.0,
                    "method": kind,
                }
            )
        finally:
            client.close()
        assert reply == {"error": _refusal(kind)}  # the subscribe's 400, as a frame


# -- the connection handler: one asyncio.Protocol over one buffer ----------
#
# The stream-based handler leaned on StreamReader for framing, EOF and
# flow control; the Protocol does those itself, so each is pinned here.
# Framing is driven in-process through a recording transport (one
# ``data_received`` per segment, deterministically); what needs a real
# transport — the WebSocket upgrade, write back-pressure, the literal
# wire bytes — goes over sockets.


def _wire(status, reason, payload, close):
    """The bytes the stream-based handler's ``_respond`` sent: the format
    is restated here, literally, so the wire cannot drift unnoticed."""
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        f"\r\n"
    ).encode("latin-1")
    return head + body


def _http(method, path, payload=None, close=False, extra=""):
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}"
    if close:
        head += "Connection: close\r\n"
    if payload is not None:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


class _RecordingTransport:
    def __init__(self):
        self.out = bytearray()
        self.closed = False
        self.reading = True

    def write(self, data):
        assert not self.closed
        self.out += data

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def _connect(service):
    """``(connection, transport)``: the handler of one new connection
    over a recording transport (call inside a running loop; await
    ``connection._server.close()`` when done, which joins the server's
    worker threads)."""
    conn = _HttpConnection(AsyncQueryServer(service))
    transport = _RecordingTransport()
    conn.connection_made(transport)
    return conn, transport


async def _until(condition):
    deadline = time.monotonic() + 30.0
    while not condition():
        assert time.monotonic() < deadline
        await asyncio.sleep(0.001)


async def _deliver(service, segments, sync=False):
    """One connection fed ``segments``, one ``data_received`` each (a
    paused transport delivers nothing, as a real one); returns what the
    handler wrote by the time it closed.  ``sync=True`` asserts no
    segment ever made the handler wait for the executor."""
    conn, transport = _connect(service)
    for segment in segments:
        assert transport.reading or not sync, "an answerable request left the loop"
        await _until(lambda: transport.reading)
        conn.data_received(segment)
    assert transport.closed or not sync, "an answerable request left the loop"
    await _until(lambda: transport.closed)
    await conn._server.close()
    return bytes(transport.out)


# -- /ws at the connection seam ----------------------------------------------
#
# The same connection serves /ws: frames are parsed from its buffer and
# written behind its write gate, and standing queries are maintained on
# its server's workers.  Driven in-process through the recording
# transport, one ``data_received`` per segment.

_WS_KEY = base64.b64encode(b"0123456789abcdef").decode()
_WS_ACCEPTED = (
    "HTTP/1.1 101 Switching Protocols\r\n"
    "Upgrade: websocket\r\n"
    "Connection: Upgrade\r\n"
    "Sec-WebSocket-Accept: "
    + base64.b64encode(hashlib.sha1((_WS_KEY + _WS_GUID).encode()).digest()).decode()
    + "\r\n\r\n"
).encode("latin-1")


def _ws_upgrade():
    return _http(
        "GET",
        "/ws",
        extra=(
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {_WS_KEY}\r\nSec-WebSocket-Version: 13\r\n"
        ),
    )


def _server_frames(out):
    """``[(opcode, payload)]`` of every whole frame written after the
    101 head (server frames: FIN set, unmasked)."""
    assert out.startswith(_WS_ACCEPTED)
    frames, at = [], len(_WS_ACCEPTED)
    while at < len(out):
        b0, n = out[at], out[at + 1]
        assert b0 & 0x80 and not n & 0x80
        at += 2
        if n >= 126:
            width = 2 if n == 126 else 8
            n = int.from_bytes(out[at : at + width], "big")
            at += width
        frames.append((b0 & 0x0F, bytes(out[at : at + n])))
        at += n
    assert at == len(out)
    return frames


class _Echo:
    """Answers a ``/ws`` message ``{"mode": "echo", "payload": s}`` with
    the bytes of ``s`` (latin-1): what the frames carried, reassembled."""

    modes = ("echo",)

    def cached(self, mode, params):
        return params["payload"].encode("latin-1")

    def echo(self, params):  # pragma: no cover - the lane always answers
        raise AssertionError("the lane answers every request")


class TestFrameRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        payload=st.binary(max_size=400),
        cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=4),
        mask=st.binary(min_size=4, max_size=4),
        ping_after=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        segments=st.lists(st.integers(min_value=0, max_value=3000), max_size=6),
    )
    def test_fragmented_masked_encode_decode(
        self, payload, cuts, mask, ping_after, segments
    ):
        """Any fragmentation of any masked message — optionally with a
        ping interleaved mid-message — reassembles to the exact bytes,
        however the wire (upgrade request included) is cut into
        segments; the pong is written before the answer."""
        message = json.dumps({"mode": "echo", "payload": payload.decode("latin-1")})
        message = message.encode()
        points = sorted({c for c in cuts if 0 < c < len(message)})
        bounds = [0, *points, len(message)]
        parts = [message[a:b] for a, b in zip(bounds, bounds[1:])]
        wire = _ws_upgrade()
        for i, part in enumerate(parts):
            fin = i == len(parts) - 1
            wire += _encode_frame(fin, 0x1 if i == 0 else 0x0, part, mask)
            if ping_after == i and not fin:
                wire += _encode_frame(True, 0x9, b"hb", mask)
        at = sorted({c for c in segments if 0 < c < len(wire)})
        pieces = [wire[a:b] for a, b in zip([0, *at], [*at, len(wire)])]

        async def run():
            conn, transport = _connect(_Echo())
            for piece in pieces:
                conn.data_received(piece)
            await conn._server.close()
            return _server_frames(transport.out)

        frames = asyncio.run(run())
        if ping_after is not None and ping_after < len(parts) - 1:
            assert frames[0] == (0xA, b"hb")
            frames = frames[1:]
        assert frames == [(0x1, payload)]


def _standing(small_batch, d):
    """A subscribe request: a route past the end of the stream, where
    every query tuple maps to the open window, so every ingest below the
    fixture's cut changes its answer."""
    xm, ym = float(np.mean(small_batch.x)), float(np.mean(small_batch.y))
    return {
        "mode": "subscribe",
        "route": [[xm - d, ym - d], [xm + d, ym + d]],
        "t_start": float(small_batch.t[-1]) + 3600.0,
        "updates": 10,
        "method": "naive",
    }


@pytest.fixture()
def live_service(small_batch):
    """``(service, registry, tail)``: a service with a subscription
    registry over the head of the stream; ``tail(k)`` is the ``k``-th
    100-row batch after it."""
    pad = 500.0
    bbox = BoundingBox(
        float(small_batch.x.min()) - pad,
        float(small_batch.y.min()) - pad,
        float(small_batch.x.max()) + pad,
        float(small_batch.y.max()) + pad,
    )
    cut = int(0.6 * len(small_batch))
    router = ShardRouter(RegionGrid(bbox, nx=2, ny=2), h=240)
    router.ingest(small_batch.slice(0, cut))
    engine = ShardedQueryEngine(router)
    registry = registry_for(engine)
    service = EngineQueryService(engine, subscriptions=registry)
    return service, registry, lambda k: small_batch.slice(cut + 100 * k, cut + 100 * (k + 1))


async def _ws_connect(service):
    """A connection upgraded to ``/ws`` over a recording transport."""
    conn, transport = _connect(service)
    conn.data_received(_ws_upgrade())
    assert bytes(transport.out) == _WS_ACCEPTED
    return conn, transport


async def _ws_request(conn, transport, request):
    """Send one text message; the JSON of the last frame once the answer
    is in (reading resumes after a worker's answer)."""
    conn.data_received(
        _encode_frame(True, 0x1, json.dumps(request).encode(), b"\x01\x02\x03\x04")
    )
    await _until(lambda: transport.reading)
    return json.loads(_server_frames(transport.out)[-1][1])


def _updates(transport):
    frames = [json.loads(data) for _op, data in _server_frames(transport.out)]
    return [(f["subscription"], f["seq"]) for f in frames if f["mode"] == "update"]


class _HeldMaintain:
    """``registry.maintain`` that, on its first pass, runs and then waits
    for :meth:`release` on its worker."""

    def __init__(self, registry):
        self._maintain = registry.maintain
        self.entered = threading.Event()
        self._released = threading.Event()
        registry.maintain = self

    def __call__(self):
        updates = self._maintain()
        if not self.entered.is_set():
            self.entered.set()
            assert self._released.wait(30.0)
        return updates

    def release(self):
        self._released.set()

    async def held(self):
        await _until(self.entered.is_set)


def _recorded_loop_errors():
    """The event loop's exception handler, replaced by a list."""
    errors = []
    asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: errors.append(ctx))
    return errors


class TestWsPusherUnsubscribeRace:
    def test_unsubscribe_during_a_pass_drops_only_its_pushes(
        self, live_service, small_batch
    ):
        """An unsubscribe answered while a maintenance pass is on a
        worker: the pass's update for that subscription is never
        pushed, and the connection's other subscription goes on getting
        every update (a pusher that polled the unsubscribed id raised
        ``KeyError`` and pushed nothing more)."""
        service, registry, tail = live_service

        async def run():
            errors = _recorded_loop_errors()
            conn, transport = await _ws_connect(service)
            kept = (await _ws_request(conn, transport, _standing(small_batch, 300.0)))[
                "subscription"
            ]
            dropped = (await _ws_request(conn, transport, _standing(small_batch, 200.0)))[
                "subscription"
            ]
            hold = _HeldMaintain(registry)
            for k in range(3):
                service.ingest(tail(k))
                if k == 0:
                    await hold.held()  # dropped's update is queued
                    bye = await _ws_request(
                        conn, transport, {"mode": "unsubscribe", "subscription": dropped}
                    )
                    assert bye == {"mode": "unsubscribed", "subscription": dropped}
                    hold.release()
                await _until(lambda: (kept, k + 1) in _updates(transport))
            transport.close()
            conn.connection_lost(None)
            await conn._server.close()
            return _updates(transport), kept, dropped, errors

        updates, kept, dropped, errors = asyncio.run(run())
        assert errors == []
        assert [seq for sub, seq in updates if sub == kept] == [1, 2, 3]
        assert not any(sub == dropped for sub, _seq in updates)


class TestWsSubscriptionLifecycle:
    def test_rows_that_arrive_during_a_pass_get_one_more_pass(
        self, live_service, small_batch
    ):
        """The wake-up that arrives while a pass is on a worker is not
        lost: one more pass runs after it, and its update arrives with
        no further ingest."""
        service, registry, tail = live_service

        async def run():
            conn, transport = await _ws_connect(service)
            sub = (await _ws_request(conn, transport, _standing(small_batch, 300.0)))[
                "subscription"
            ]
            hold = _HeldMaintain(registry)
            service.ingest(tail(0))
            await hold.held()  # the pass has seen tail(0), not tail(1)
            service.ingest(tail(1))
            await asyncio.sleep(0.01)  # the listener's wake-up reaches the loop
            hold.release()
            await _until(lambda: len(_updates(transport)) == 2)
            passes = registry.stats.maintains
            await asyncio.sleep(0.05)
            transport.close()
            conn.connection_lost(None)
            await conn._server.close()
            return _updates(transport), sub, passes, registry.stats.maintains

        updates, sub, passes, after = asyncio.run(run())
        assert updates == [(sub, 1), (sub, 2)]
        assert after == passes  # exactly one more pass, not one per wake

    def test_a_push_waits_for_the_write_gate(self, live_service, small_batch):
        """With the write buffer over its mark, a pass's updates stay
        queued in the registry; ``resume_writing`` pushes them."""
        service, registry, tail = live_service

        async def run():
            conn, transport = await _ws_connect(service)
            sub = (await _ws_request(conn, transport, _standing(small_batch, 300.0)))[
                "subscription"
            ]
            conn.pause_writing()
            passes = registry.stats.maintains
            service.ingest(tail(0))
            await _until(lambda: registry.stats.maintains > passes and not conn._maintaining)
            assert _updates(transport) == []
            assert len(registry.subscription(sub).pending) == 1
            conn.resume_writing()
            pushed = _updates(transport)
            transport.close()
            conn.connection_lost(None)
            await conn._server.close()
            return pushed, sub

        pushed, sub = asyncio.run(run())
        assert pushed == [(sub, 1)]

    def test_a_client_gone_during_its_pass(self, live_service, small_batch):
        """A client that closes while its pass is on a worker: the close
        echo is the last frame written — the pass's updates are not
        pushed and nothing is raised on the loop (the recording transport
        refuses a write after close) — and once the connection is lost
        its listener and subscriptions are out of the registry."""
        service, registry, tail = live_service

        async def run():
            errors = _recorded_loop_errors()
            conn, transport = await _ws_connect(service)
            await _ws_request(conn, transport, _standing(small_batch, 300.0))
            await _ws_request(conn, transport, _standing(small_batch, 200.0))
            hold = _HeldMaintain(registry)
            service.ingest(tail(0))
            await hold.held()
            conn.data_received(_encode_frame(True, 0x8, b"\x03\xe8", b"\x01\x02\x03\x04"))
            assert transport.closed
            written = bytes(transport.out)
            hold.release()
            await _until(lambda: not conn._maintaining)
            conn.connection_lost(None)  # asyncio's next callback after the close
            assert registry._listeners == []
            assert len(registry) == 0
            service.ingest(tail(1))  # no listener: nothing is scheduled
            await asyncio.sleep(0.05)
            await conn._server.close()
            return written, bytes(transport.out), errors

        written, out, errors = asyncio.run(run())
        assert _server_frames(written)[-1] == (0x8, b"\x03\xe8")
        assert out == written
        assert errors == []


class _LaneService(EngineQueryService):
    """Records the thread of every lane answer and every handler call."""

    def __init__(self, engine):
        super().__init__(engine, method="model-cover")
        self.cached_on = []
        self.point_on = []

    def cached(self, mode, params):
        payload = super().cached(mode, params)
        if payload is not None:
            self.cached_on.append(threading.get_ident())
        return payload

    def point(self, params):
        self.point_on.append(threading.get_ident())
        return super().point(params)


@pytest.fixture()
def lane_service(small_dataset):
    router = ShardRouter(
        RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4), h=240
    )
    router.ingest(small_dataset.tuples)
    with ShardedQueryEngine(router) as engine:
        yield _LaneService(engine)


def _point_at(small_dataset, row):
    tuples = small_dataset.tuples
    return {"t": float(tuples.t[row]), "x": float(tuples.x[row]), "y": float(tuples.y[row])}


class TestRequestFraming:
    def test_split_at_every_offset_and_byte_by_byte(self, lane_service, small_dataset):
        """A cached-lane request cut anywhere in its head or body — or
        delivered one byte at a time — is answered once, identically,
        and never leaves the loop thread."""
        params = _point_at(small_dataset, 3000)
        expected = _wire(200, "OK", lane_service.point(params), close=True)  # warms
        request = _http("POST", "/query/point", params, close=True)

        async def run():
            for cut in range(len(request) + 1):
                halves = [request[:cut], request[cut:]]
                assert await _deliver(lane_service, halves, sync=True) == expected, cut
            each = [request[i : i + 1] for i in range(len(request))]
            assert await _deliver(lane_service, each, sync=True) == expected

        asyncio.run(run())
        assert len(lane_service.point_on) == 1  # only the warming call

    def test_executor_request_split_at_every_offset(self, one_shard_served, t_mid):
        """The same for a request that takes the executor hop (a
        ``naive`` service has no lane), over the real transport's
        pause/resume: the body is complete exactly once."""
        service = one_shard_served.server.service
        params = {"t": t_mid, "x": 2000.0, "y": 1500.0}
        expected = _wire(200, "OK", service.point(params), close=True)
        request = _http("POST", "/query/point", params, close=True)

        async def run():
            for cut in range(0, len(request) + 1, 7):
                halves = [request[:cut], request[cut:]]
                assert await _deliver(service, halves) == expected, cut

        asyncio.run(run())

    def test_three_requests_in_one_segment(self, lane_service, small_dataset):
        """Hit, miss, hit in one ``data_received``: the first hit is on
        the transport before the callback returns, the miss runs on a
        pool thread with reading paused, and the answers keep request
        order."""
        warm, cold = _point_at(small_dataset, 3000), _point_at(small_dataset, 600)
        hit = lane_service.point(warm)
        del lane_service.point_on[:], lane_service.cached_on[:]
        segment = (
            _http("POST", "/query/point", warm)
            + _http("POST", "/query/point", cold)
            + _http("POST", "/query/point", warm, close=True)
        )

        async def run():
            conn, transport = _connect(lane_service)
            conn.data_received(segment)
            # Synchronously: the first answer is written, the second is
            # on the executor, the third has not been looked at.
            assert bytes(transport.out) == _wire(200, "OK", hit, close=False)
            assert not transport.reading and not transport.closed
            await _until(lambda: transport.closed)
            await conn._server.close()
            return bytes(transport.out)

        out = asyncio.run(run())
        loop_thread = threading.get_ident()
        assert lane_service.cached_on == [loop_thread, loop_thread]
        assert len(lane_service.point_on) == 1
        assert lane_service.point_on[0] != loop_thread
        miss = lane_service.point(cold)  # cached by now: the same answer
        assert out == (
            _wire(200, "OK", hit, close=False)
            + _wire(200, "OK", miss, close=False)
            + _wire(200, "OK", hit, close=True)
        )

    def test_half_close_answers_what_is_buffered_then_closes(self, one_shard_served, t_mid):
        service = one_shard_served.server.service
        params = {"t": t_mid, "x": 2000.0, "y": 1500.0}
        answer = _wire(200, "OK", service.point(params), close=False)

        async def run():
            conn, transport = _connect(service)
            conn.data_received(_http("POST", "/query/point", params) * 2)
            assert conn.eof_received() is True  # both answers are still owed
            assert not transport.closed
            await _until(lambda: transport.closed)
            await conn._server.close()
            return bytes(transport.out)

        assert asyncio.run(run()) == answer * 2


class TestWireBytes:
    """Status line, the four header lines (order and case) and the body
    are what the stream-based handler sent."""

    def test_200_400_404_literally(self, one_shard_served):
        health = {"status": "ok", "modes": ["point", "continuous", "heatmap", "model"],
                  "subscriptions": False}  # fmt: skip
        assert _raw_exchange(
            one_shard_served.port, _http("GET", "/health", close=True)
        ) == _wire(200, "OK", health, close=True)
        assert _raw_exchange(
            one_shard_served.port, _http("GET", "/nope", close=True)
        ) == _wire(404, "Not Found", {"error": "no route GET /nope"}, close=True)
        assert _raw_exchange(
            one_shard_served.port,
            b"POST /query/point HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: 8\r\n\r\nnot json",
        ) == _wire(400, "Bad Request", {"error": "body must be a JSON object"}, close=True)
        assert _raw_exchange(
            one_shard_served.port, _http("POST", "/query/tomography", {}, close=True)
        ) == _wire(404, "Not Found", {"error": "unknown mode 'tomography'"}, close=True)
        # Keep-alive, pipelined: the responses are just concatenated.
        assert _raw_exchange(
            one_shard_served.port, _http("GET", "/health") + _http("GET", "/health", close=True)
        ) == _wire(200, "OK", health, close=False) + _wire(200, "OK", health, close=True)
        assert _raw_exchange(one_shard_served.port, b"BROKEN\r\n\r\n") == _wire(
            400, "Bad Request", {"error": "malformed request"}, close=True
        )

    def test_other_statuses_carry_their_own_reason_phrase(self):
        """Was ``"Error"`` for everything but 200/400/404."""

        class Broken:
            modes = ("point",)

            def point(self, params):
                raise RuntimeError("boom")

        with BackgroundServer(Broken()) as served:
            assert _raw_exchange(
                served.port, _http("POST", "/query/point", {}, close=True)
            ) == _wire(
                500,
                http.HTTPStatus(500).phrase,
                {"error": "RuntimeError: boom"},
                close=True,
            )
            assert http.HTTPStatus(500).phrase == "Internal Server Error"

    @pytest.mark.parametrize(
        "grid",
        [
            np.array([[1.5, np.nan, -0.0], [np.inf, -np.inf, 400.25], [0.0, 1e-320, 1e300]]),
            np.array([[np.nan]]),
            np.array([[-0.0]]),
            np.full((3, 2), np.nan),
            np.arange(6, dtype=np.int64).reshape(2, 3),
            np.linspace(380.0, 420.0, 12, dtype=np.float32).reshape(3, 4),
        ],
    )
    def test_heatmap_grids_serialise_as_cell_by_cell_clean(self, grid):
        """The shaper builds the grid with one ``tolist`` and patches the
        non-finite cells; the bytes are those of a ``_clean`` per cell."""
        per_cell = json.dumps([[_clean(v) for v in row] for row in grid])

        class Engine:
            router = types.SimpleNamespace(global_count=lambda: 1)
            metrics = Metrics()

            def heatmap_grid(self, t, bounds, nx, ny, method):
                return grid

        ny, nx = grid.shape
        params = {"t": 1.0, "bounds": [0.0, 0.0, 10.0, 10.0], "nx": nx, "ny": ny}
        service = EngineQueryService(Engine())
        assert json.dumps(service.heatmap(params)["grid"]) == per_cell

    def test_upgrade_without_a_key_is_a_400(self, one_shard_served):
        assert _raw_exchange(
            one_shard_served.port,
            _http("GET", "/ws", extra="Upgrade: websocket\r\nConnection: Upgrade\r\n"),
        ) == _wire(400, "Bad Request", {"error": "missing Sec-WebSocket-Key"}, close=True)


class TestSizeLimits:
    def test_oversize_head_closes_without_an_answer(self, one_shard_served):
        flood = b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * (_MAX_HEADER + 64)
        assert _raw_exchange(one_shard_served.port, flood) == b""
        # A head of exactly the limit is still served.
        pad = _MAX_HEADER - len(b"GET /health HTTP/1.1\r\nConnection: close\r\nX-Pad: ")
        head = (
            b"GET /health HTTP/1.1\r\nConnection: close\r\nX-Pad: " + b"a" * pad
        )
        assert len(head) == _MAX_HEADER
        assert _raw_exchange(one_shard_served.port, head + b"\r\n\r\n").startswith(
            b"HTTP/1.1 200 OK\r\n"
        )

    @pytest.mark.parametrize("length", [str(_MAX_BODY + 1), "9" * 5000])
    def test_oversize_body_is_a_413_before_any_body_byte(self, one_shard_served, length):
        request = (
            f"POST /query/point HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        ).encode("latin-1")
        assert _raw_exchange(one_shard_served.port, request) == _wire(
            413, http.HTTPStatus(413).phrase, {"error": "body too large"}, close=True
        )

    def test_largest_body_is_read_across_many_segments(self, one_shard_served):
        body = b" " * (_MAX_BODY - 2) + b"{}"
        request = (
            f"POST /query/point HTTP/1.1\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        response = _raw_exchange(one_shard_served.port, request)
        assert response == _wire(
            400, "Bad Request", {"error": "field 't' must be a number"}, close=True
        )


class TestUpgradeHandOff:
    def test_upgrade_and_first_frame_in_one_segment(self, one_shard_served, t_mid):
        """Bytes that arrived behind the Upgrade request belong to the
        WebSocket session: they are fed to its reader, not dropped."""
        key = base64.b64encode(b"0123456789abcdef").decode()
        ask = {"mode": "point", "t": t_mid, "x": 2000.0, "y": 1500.0}
        segment = _http(
            "GET",
            "/ws",
            extra=(
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n"
            ),
        ) + _encode_frame(True, 0x1, json.dumps(ask).encode(), b"\x01\x02\x03\x04")
        client = _WsClient.__new__(_WsClient)  # the handshake is done by hand
        client.sock = socket.create_connection(
            ("127.0.0.1", one_shard_served.port), timeout=30
        )
        try:
            client.sock.sendall(segment)
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                head += client._recv_exactly(1)
            accept = base64.b64encode(
                hashlib.sha1((key + _WS_GUID).encode()).digest()
            ).decode()
            assert head.startswith(b"HTTP/1.1 101 Switching Protocols\r\n")
            assert f"Sec-WebSocket-Accept: {accept}".encode() in head
            assert client.recv_json() == one_shard_served.server.service.point(ask)
            # ... and the session goes on as any other.
            assert client.request(ask) == one_shard_served.server.service.point(ask)
        finally:
            client.close()


class TestWriteBackPressure:
    def test_a_client_that_stops_reading_stops_being_served(self, monkeypatch):
        """Pipelined heatmap requests from a client that never reads:
        once the transport's write buffer passes its high-water mark the
        handler stops taking requests, so the buffer stays bounded (the
        stream handler got this from ``await writer.drain()``); when the
        client reads again, every answer arrives, in order.  Both kernel
        socket buffers are pinned small so that the kernel cannot absorb
        the answers instead."""

        class Heatmaps:
            modes = ("heatmap",)

            def __init__(self):
                self.served = 0

            def heatmap(self, params):
                self.served += 1
                return {"mode": "heatmap", "i": params["i"], "grid": [[0.5] * 512] * 64}

        service = Heatmaps()
        one = len(_wire(200, "OK", service.heatmap({"i": 0}), close=False))
        service.served = 0
        transports = []
        made = _HttpConnection.connection_made

        def spy(self, transport):
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 8192
            )
            transports.append(transport)
            made(self, transport)

        monkeypatch.setattr(_HttpConnection, "connection_made", spy)
        n = 16
        with BackgroundServer(service) as served:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(30)
            sock.connect(("127.0.0.1", served.port))
            try:
                sock.sendall(
                    b"".join(
                        _http("POST", "/query/heatmap", {"i": i}, close=i == n - 1)
                        for i in range(n)
                    )
                )
                # Wait for the server to go quiet.
                seen, quiet_since = -1, time.monotonic()
                deadline = time.monotonic() + 60.0
                while time.monotonic() - quiet_since < 0.3:
                    assert time.monotonic() < deadline
                    if service.served != seen:
                        seen, quiet_since = service.served, time.monotonic()
                    time.sleep(0.02)
                (transport,) = transports
                high = transport.get_write_buffer_limits()[1]
                # Over the mark after the first answer, one more request
                # may already have been on the executor.
                assert 1 <= service.served <= 3, "the handler never stopped serving"
                assert high < transport.get_write_buffer_size() <= high + 2 * one
                # The client comes back: everything owed arrives in order.
                data = bytearray()
                while True:
                    chunk = sock.recv(1 << 20)
                    if not chunk:
                        break
                    data += chunk
            finally:
                sock.close()
        assert service.served == n
        at = 0
        for i in range(n):
            end = data.index(b"\r\n\r\n", at) + 4
            head = bytes(data[at:end])
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            assert json.loads(bytes(data[end : end + length]))["i"] == i
            at = end + length
        assert at == len(data)


# -- the /ws wire, pinned: every byte the server frames ---------------------


class _Sized:
    """A service whose one mode's lane answers ``n`` bytes: a text frame
    of any length, to pin the three length forms of a server frame."""

    modes = ("sized",)

    def cached(self, mode, params):
        return b"a" * params["n"]

    def sized(self, params):  # pragma: no cover - the lane always answers
        raise AssertionError("the lane answers every request")


class TestWsWireBytes:
    @pytest.mark.parametrize(
        "n, head",
        [
            (0, b"\x81\x00"),
            (125, b"\x81\x7d"),
            (126, b"\x81\x7e\x00\x7e"),
            (65_535, b"\x81\x7e\xff\xff"),
            (65_536, b"\x81\x7f\x00\x00\x00\x00\x00\x01\x00\x00"),
        ],
        ids=["0", "125", "126", "65535", "65536"],
    )
    def test_text_frames_literally(self, n, head):
        """FIN and opcode 0x1, no mask, the 7-bit, 16-bit or 64-bit
        length, then the body as the lane gave it."""
        with BackgroundServer(_Sized()) as served:
            client = _WsClient(served.port)
            try:
                client.send(True, 0x1, json.dumps({"mode": "sized", "n": n}).encode())
                assert client._recv_exactly(len(head) + n) == head + b"a" * n
                # Nothing more than the one frame was written.
                client.send(True, 0x9, b"")
                assert client._recv_exactly(2) == b"\x8a\x00"
            finally:
                client.close()

    def test_pong_and_close_echo_literally(self, one_shard_served):
        client = _WsClient(one_shard_served.port)
        try:
            client.send(True, 0x9, b"are you there")
            assert client._recv_exactly(15) == b"\x8a\x0dare you there"
            # The close echoes the status code only (payload[:2]), then
            # the server closes.
            client.send(True, 0x8, b"\x03\xe8going away")
            assert client._recv_exactly(4) == b"\x88\x02\x03\xe8"
            assert client.closed_by_server()
        finally:
            client.sock.close()
        client = _WsClient(one_shard_served.port)
        try:
            client.send(True, 0x8, b"")
            assert client._recv_exactly(2) == b"\x88\x00"
            assert client.closed_by_server()
        finally:
            client.sock.close()


def _masked_text_frame(payload: bytes, mask: bytes) -> bytes:
    """A FIN text frame with a 64-bit length, masked in one vectorised
    XOR (``_encode_frame``'s byte loop takes seconds over 4 MiB)."""
    return b"\x81\xff" + struct.pack(">Q", len(payload)) + mask + _unmask(payload, mask)


class TestWsSizeLimits:
    def test_largest_frame_is_read_across_many_segments(self, one_shard_served):
        """A frame of exactly ``_MAX_BODY`` bytes is one message: read
        whole, however it is cut, and answered as the HTTP body of the
        same bytes is (the field check of a dict without ``mode``)."""
        body = b" " * (_MAX_BODY - 2) + b"{}"
        frame = _masked_text_frame(body, b"\x11\x22\x33\x44")
        client = _WsClient(one_shard_served.port)
        try:
            for at in range(0, len(frame), 1 << 16):
                client.sock.sendall(frame[at : at + (1 << 16)])
            assert client.recv_frame() == (
                0x1,
                json.dumps({"error": "frame must be a JSON object with 'mode'"}).encode(),
            )
        finally:
            client.close()

    def test_one_byte_more_is_refused_before_its_payload(self, one_shard_served):
        client = _WsClient(one_shard_served.port)
        try:
            client.sock.sendall(
                b"\x81\xff" + struct.pack(">Q", _MAX_BODY + 1) + b"\x11\x22\x33\x44"
            )
            assert client.closed_by_server()
        finally:
            client.sock.close()


class TestWsWriteBackPressure:
    def test_a_subscriber_that_stops_reading_stops_being_served(
        self, small_batch, monkeypatch
    ):
        """A subscribed client pipelines heatmap requests and stops
        reading while the writer ingests: once the write buffer passes
        its high-water mark neither replies nor pushes are written, so
        it stays bounded; when the client reads again every reply
        arrives in request order and the update frames arrive whole,
        with consecutive ``seq``.  Both kernel socket buffers are pinned
        small, as in :class:`TestWriteBackPressure`."""
        pad = 500.0
        bbox = BoundingBox(
            float(small_batch.x.min()) - pad,
            float(small_batch.y.min()) - pad,
            float(small_batch.x.max()) + pad,
            float(small_batch.y.max()) + pad,
        )
        cut = int(0.6 * len(small_batch))
        router = ShardRouter(RegionGrid(bbox, nx=2, ny=2), h=240)
        router.ingest(small_batch.slice(0, cut))
        engine = ShardedQueryEngine(router)
        registry = registry_for(engine)

        class Heatmaps(EngineQueryService):
            served = 0

            def heatmap(self, params):
                self.served += 1
                return {"mode": "heatmap", "i": params["i"], "grid": [[0.5] * 512] * 64}

        service = Heatmaps(engine, subscriptions=registry)
        one = 10 + len(json.dumps(service.heatmap({"i": 0})).encode())
        service.served = 0
        transports = []
        made = _HttpConnection.connection_made

        def spy(self, transport):
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 8192
            )
            transports.append(transport)
            made(self, transport)

        monkeypatch.setattr(_HttpConnection, "connection_made", spy)
        xm, ym = float(np.mean(small_batch.x)), float(np.mean(small_batch.y))
        n = 16
        with BackgroundServer(service) as served:
            client = _WsClient(served.port, rcvbuf=4096)
            try:
                sub_id = client.request(
                    {
                        "mode": "subscribe",
                        "route": [[xm - 300.0, ym - 300.0], [xm + 300.0, ym + 300.0]],
                        # Past the end of the stream: every ingest below
                        # changes the answer.
                        "t_start": float(small_batch.t[-1]) + 3600.0,
                        "updates": 10,
                        "method": "naive",
                    }
                )["subscription"]
                client.sock.sendall(
                    b"".join(
                        _encode_frame(
                            True,
                            0x1,
                            json.dumps({"mode": "heatmap", "i": i}).encode(),
                            b"\xaa\xbb\xcc\xdd",
                        )
                        for i in range(n)
                    )
                )
                for k in range(3):
                    time.sleep(0.05)
                    service.ingest(small_batch.slice(cut + 100 * k, cut + 100 * (k + 1)))
                # Wait for the server to go quiet.
                seen, quiet_since = None, time.monotonic()
                deadline = time.monotonic() + 60.0
                while time.monotonic() - quiet_since < 0.3:
                    assert time.monotonic() < deadline
                    now = (service.served, registry.stats.maintains)
                    if now != seen:
                        seen, quiet_since = now, time.monotonic()
                    time.sleep(0.02)
                (transport,) = transports
                high = transport.get_write_buffer_limits()[1]
                assert 1 <= service.served <= 3, "the handler never stopped serving"
                assert high < transport.get_write_buffer_size() <= high + 2 * one
                # The client comes back: everything owed arrives.
                replies, updates = [], []
                while len(replies) < n:
                    frame = client.recv_json()
                    (updates if frame.get("mode") == "update" else replies).append(frame)
                client.send(
                    True,
                    0x1,
                    json.dumps({"mode": "unsubscribe", "subscription": sub_id}).encode(),
                )
                while (frame := client.recv_json()).get("mode") == "update":
                    updates.append(frame)
                assert frame == {"mode": "unsubscribed", "subscription": sub_id}
            finally:
                client.close()
        assert service.served == n
        assert [r["i"] for r in replies] == list(range(n))
        assert updates, "no update was pushed"
        assert {u["subscription"] for u in updates} == {sub_id}
        assert [u["seq"] for u in updates] == list(range(1, len(updates) + 1))
