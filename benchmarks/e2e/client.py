"""The load generator: one thread, one keep-alive HTTP/1.1 connection.

Closed loop: the next request goes out only when the previous answer has
arrived, so what is timed is service time without a queue (on two shared
cores an open-loop queue would mostly measure the scheduler).  Raw
sockets and pre-encoded request bytes keep the generator's own cost a
small share of every latency it reports (``client.cpu_ms_per_req``).
"""

from __future__ import annotations

import base64
import json
import os
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.workloads import Request, encode_http

TIMEOUT_S = 5.0


class HttpConnection:
    """A blocking keep-alive connection that speaks just enough HTTP/1.1."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self._address = (host, port)
        self.connect()

    def connect(self) -> None:
        self.sock = socket.create_connection(self._address, timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "HttpConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def roundtrip(self, wire: bytes) -> Tuple[int, bytes]:
        """Send one request, return ``(status, body)``."""
        self.sock.sendall(wire)
        buf = self._buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = bytes(buf[:end])
        status = int(head[9:12])
        at = head.find(b"Content-Length:")
        if at < 0:
            raise ValueError("response without Content-Length")
        stop = head.find(b"\r\n", at)
        length = int(head[at + 15 : stop if stop >= 0 else len(head)])
        need = end + 4 + length
        while len(buf) < need:
            self._fill()
        body = bytes(buf[end + 4 : need])
        del buf[:need]
        return status, body

    def health(self) -> Dict[str, Any]:
        status, body = self.roundtrip(b"GET /health HTTP/1.1\r\nHost: bench\r\n\r\n")
        if status != 200:
            raise ConnectionError(f"/health answered {status}")
        return json.loads(body)


class WsConnection:
    """A ``/ws`` client for standing subscriptions: text frames only."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()
        key = base64.b64encode(os.urandom(16)).decode("latin-1")
        self.sock.sendall(
            (
                "GET /ws HTTP/1.1\r\nHost: bench\r\nUpgrade: websocket\r\n"
                f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        while (end := self._buf.find(b"\r\n\r\n")) < 0:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed during the handshake")
            self._buf += chunk
        if not self._buf.startswith(b"HTTP/1.1 101"):
            raise ConnectionError("WebSocket upgrade refused")
        del self._buf[: end + 4]

    def close(self) -> None:
        self.sock.close()

    def send(self, payload: Dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        n = len(data)
        # Client frames must be masked; an all-zero key is a legal mask
        # and leaves the payload readable on the wire.
        if n < 126:
            head = bytes([0x81, 0x80 | n])
        elif n < 1 << 16:
            head = bytes([0x81, 0x80 | 126]) + struct.pack(">H", n)
        else:
            head = bytes([0x81, 0x80 | 127]) + struct.pack(">Q", n)
        self.sock.sendall(head + b"\x00\x00\x00\x00" + data)

    def _pop_frame(self) -> Optional[bytes]:
        buf = self._buf
        if len(buf) < 2:
            return None
        n = buf[1] & 0x7F
        at = 2
        if n == 126:
            if len(buf) < 4:
                return None
            (n,) = struct.unpack(">H", buf[2:4])
            at = 4
        elif n == 127:
            if len(buf) < 10:
                return None
            (n,) = struct.unpack(">Q", buf[2:10])
            at = 10
        if len(buf) < at + n:
            return None
        payload = bytes(buf[at : at + n])
        del buf[: at + n]
        return payload

    def receive(self) -> Dict[str, Any]:
        """Block for the next frame."""
        self.sock.settimeout(TIMEOUT_S)
        while (payload := self._pop_frame()) is None:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the WebSocket")
            self._buf += chunk
        return json.loads(payload)

    def drain(self) -> List[bytes]:
        """Every complete frame that has already arrived; never blocks."""
        self.sock.setblocking(False)
        try:
            while True:
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    break
                self._buf += chunk
        except BlockingIOError:
            pass
        frames = []
        while (payload := self._pop_frame()) is not None:
            frames.append(payload)
        return frames


def response_ok(request: Request, status: int, body: bytes) -> bool:
    """Status, JSON validity, mode and answer length of one response."""
    if status != 200:
        return False
    try:
        doc = json.loads(body)
    except ValueError:
        return False
    if not isinstance(doc, dict) or doc.get("mode") != request.mode:
        return False
    if request.mode == "point":
        return "value" in doc and "support" in doc
    if request.mode == "continuous":
        readings = doc.get("readings")
        return isinstance(readings, list) and len(readings) == request.params["updates"]
    grid = doc.get("grid")
    return (
        isinstance(grid, list)
        and len(grid) == request.params["ny"]
        and all(len(row) == request.params["nx"] for row in grid)
    )


@dataclass
class RoundResult:
    """What one measured stretch of the closed loop saw."""

    latencies_ms: List[float] = field(default_factory=list)
    errors: int = 0
    wall_s: float = 0.0
    client_cpu_s: float = 0.0
    #: ``(receive time on time.monotonic, frame)`` of each ``/ws`` push.
    pushes: List[Tuple[float, bytes]] = field(default_factory=list)
    #: ``(request, params as sent, body)`` for the oracle.
    captured: List[Tuple[Request, Dict[str, Any], bytes]] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return len(self.latencies_ms)

    @property
    def attempted(self) -> int:
        return self.ok + self.errors


class Cursor:
    """Position in the cycled request list, kept across rounds."""

    def __init__(self, requests: Sequence[Request]) -> None:
        self.requests = requests
        self.wires = [
            encode_http(r.mode, r.params) if r.lag_s is None else None
            for r in requests
        ]
        self.i = 0


def drive(
    conn: HttpConnection,
    cursor: Cursor,
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    stream_t: Optional[Callable[[], float]] = None,
    ws: Optional[WsConnection] = None,
    capture: int = 0,
) -> RoundResult:
    """Run the closed loop for ``seconds`` or for ``count`` requests.

    ``stream_t`` supplies the stream time ``live_mixed`` requests are
    stamped with; ``ws`` is drained between requests so pushed frames get
    a receive time; the first ``capture`` bodies are kept for the oracle.
    A failed exchange (non-200, bad body, timeout) counts in ``errors``
    and has no latency sample.
    """
    out = RoundResult()
    requests, wires = cursor.requests, cursor.wires
    n = len(requests)
    cpu0 = time.process_time()
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    sent = 0
    while True:
        i = cursor.i
        cursor.i = (i + 1) % n
        request = requests[i]
        wire = wires[i]
        params = request.params
        if wire is None:
            params = request.stamped(stream_t())
            wire = encode_http(request.mode, params)
        t0 = time.perf_counter()
        try:
            status, body = conn.roundtrip(wire)
        except (OSError, ValueError):
            # Timed out or desynchronised: the exchange failed and the
            # connection cannot be trusted for the next one.
            status, body = 0, b""
            conn.close()
            conn.connect()
        t1 = time.perf_counter()
        if response_ok(request, status, body):
            out.latencies_ms.append((t1 - t0) * 1e3)
        else:
            out.errors += 1
        if len(out.captured) < capture:
            out.captured.append((request, params, body))
        if ws is not None:
            frames = ws.drain()
            if frames:
                now = time.monotonic()
                out.pushes.extend((now, f) for f in frames)
        sent += 1
        if (count is not None and sent >= count) or (
            deadline is not None and t1 >= deadline
        ):
            break
    out.wall_s = time.perf_counter() - start
    out.client_cpu_s = time.process_time() - cpu0
    return out
