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
* ``_read_frame`` ignored FIN and dropped continuation frames, silently
  corrupting fragmented WebSocket messages;
* ``NaN`` / ``Infinity`` (which ``json.loads`` accepts) were evaluated —
  a cover at a NaN time, an undefined float->int cast in the region grid
  — and an integer literal above float range was a 500;
* ``_read_frame`` unmasked payloads one byte at a time on the event loop.

``RuntimeWarning`` is an error in this file: the undefined cast only
ever announced itself as one.
"""

import asyncio
import base64
import hashlib
import http.client
import json
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.webapp import WebInterface
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.engine import QueryEngine
from repro.query.sharded import ShardedQueryEngine
from repro.query.subscriptions import registry_for
from repro.server.async_server import (
    AsyncQueryServer,
    BackgroundServer,
    EngineQueryService,
    HttpError,
    WebAppService,
    _unmask,
)
from repro.storage.shards import ShardRouter

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


@pytest.fixture(scope="module")
def web_served(small_batch):
    web = WebInterface(QueryEngine(small_batch, h=240))
    with BackgroundServer(WebAppService(web)) as background:
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
        self, web_served, value
    ):
        response = _raw_exchange(
            web_served.port,
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

    def test_valid_content_length_still_served(self, web_served, t_mid):
        status, _body = _post(
            web_served.port, "/query/point", {"t": t_mid, "x": 2000.0, "y": 1500.0}
        )
        assert status == 200


_BAD_DURATIONS = ["soon", 0, -600.0, True, float("nan"), float("inf"), 10**400]


class TestDurationValidation:
    @pytest.mark.parametrize("duration", _BAD_DURATIONS)
    def test_webapp_service_rejects_bad_duration(
        self, web_served, t_mid, duration
    ):
        status, body = _post(
            web_served.port,
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

    def test_valid_duration_still_served(self, web_served, t_mid):
        status, body = _post(
            web_served.port,
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

    def test_webapp_service_refuses_them(self, web_served, t_mid):
        self._sweep(web_served.port, t_mid)

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


class TestRequestLimits:
    def test_giant_heatmap_grid_is_rejected(self, web_served, t_mid):
        status, body = _post(
            web_served.port,
            "/query/heatmap",
            {"t": t_mid, "bounds": [0, 0, 6000, 4000], "nx": 10**6, "ny": 10**6},
        )
        assert status == 400
        assert "nx" in body["error"]

    def test_axis_just_over_the_cap_is_rejected(self, web_served, t_mid):
        status, body = _post(
            web_served.port,
            "/query/heatmap",
            {"t": t_mid, "bounds": [0, 0, 6000, 4000], "nx": 4, "ny": 513},
        )
        assert status == 400
        assert "513" not in body["error"] or "ny" in body["error"]

    def test_giant_update_count_is_rejected(self, web_served, t_mid):
        status, body = _post(
            web_served.port,
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
    def test_connection_survives_a_400(self, web_served, t_mid):
        conn = http.client.HTTPConnection("127.0.0.1", web_served.port, timeout=30)
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

    def test_pipelined_requests_after_400(self, web_served, t_mid):
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
        response = _raw_exchange(web_served.port, request)
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

    def __init__(self, port, timeout=30):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
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
    def test_fragmented_request_is_reassembled(self, web_served, t_mid):
        payload = json.dumps(
            {"mode": "point", "t": t_mid, "x": 2000.0, "y": 1500.0}
        ).encode()
        client = _WsClient(web_served.port)
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

    def test_ping_interleaved_mid_message(self, web_served, t_mid):
        payload = json.dumps(
            {"mode": "point", "t": t_mid, "x": 2000.0, "y": 1500.0}
        ).encode()
        client = _WsClient(web_served.port)
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

    def test_bare_continuation_is_a_protocol_error(self, web_served):
        client = _WsClient(web_served.port)
        client.send(True, 0x0, b"orphan")
        assert client.closed_by_server()
        client.sock.close()

    def test_fragmented_control_frame_is_a_protocol_error(self, web_served):
        client = _WsClient(web_served.port)
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


class _RecordingWriter:
    def __init__(self):
        self.sent = b""

    def write(self, data):
        self.sent += data

    async def drain(self):
        pass


class TestFrameRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        payload=st.binary(max_size=400),
        cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=4),
        mask=st.binary(min_size=4, max_size=4),
        ping_after=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    )
    def test_fragmented_masked_encode_decode(
        self, payload, cuts, mask, ping_after
    ):
        """Any fragmentation of any masked payload — optionally with a
        ping interleaved mid-message — decodes back to the exact bytes."""
        points = sorted({c for c in cuts if 0 < c < len(payload)})
        bounds = [0, *points, len(payload)]
        parts = [payload[a:b] for a, b in zip(bounds, bounds[1:])] or [payload]
        wire = b""
        for i, part in enumerate(parts):
            fin = i == len(parts) - 1
            wire += _encode_frame(fin, 0x1 if i == 0 else 0x0, part, mask)
            if ping_after == i and not fin:
                wire += _encode_frame(True, 0x9, b"hb", mask)

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(wire)
            reader.feed_eof()
            writer = _RecordingWriter()
            server = AsyncQueryServer(service=None)
            message = await server._read_message(reader, writer, asyncio.Lock())
            assert message == payload
            if ping_after is not None and ping_after < len(parts) - 1:
                assert writer.sent == bytes([0x8A, 2]) + b"hb"
            else:
                assert writer.sent == b""

        asyncio.run(run())


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

    def test_subscribe_without_registry_is_an_error_frame(self, web_served):
        client = _WsClient(web_served.port)
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
