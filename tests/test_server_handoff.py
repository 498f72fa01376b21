"""The front end's hand-off of blocking work to its own worker threads.

A request the event loop cannot answer goes to one of the server's
worker threads through one ``queue.SimpleQueue`` and its answer comes
back with one ``loop.call_soon_threadsafe``.  These tests pin what that
hand-off must keep of the old ``run_in_executor`` one: a handler that
raises is a 500 and the connection keeps serving; a client that leaves
mid-request costs nothing; pipelined requests are answered in request
order; ``/health`` is answered on the loop while a blocking request
runs; the worker count follows the default executor's rule; and
``close()`` joins every worker (each test ends with the threads and
descriptors it began with).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.server.async_server import (
    AsyncQueryServer,
    BackgroundServer,
    _default_workers,
    _Workers,
)

pytestmark = pytest.mark.usefixtures("leak_check")


class _BlockingService:
    """A service of one mode whose handler runs on the workers: it fails
    on request, or waits for :attr:`release` when asked to block."""

    modes = ("point",)

    def __init__(self) -> None:
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = []

    def point(self, params):
        self.calls.append(params.get("n"))
        if params.get("fail"):
            raise RuntimeError("the handler broke")
        if params.get("block"):
            self.started.set()
            assert self.release.wait(30.0)
        return {"n": params.get("n"), "thread": threading.get_ident()}


def _request(path: str, payload=None, close: bool = False) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode()
    method = "GET" if payload is None else "POST"
    return (
        f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    ).encode() + body


def _read_responses(sock: socket.socket, count: int):
    """``count`` whole responses off ``sock``: ``(status, body)`` each."""
    buf = b""
    out = []
    sock.settimeout(30.0)
    while len(out) < count:
        head_end = buf.find(b"\r\n\r\n")
        if head_end >= 0:
            head = buf[:head_end].decode("latin-1").split("\r\n")
            length = int(
                next(h for h in head if h.lower().startswith("content-length:")).split(":")[1]
            )
            end = head_end + 4 + length
            if len(buf) >= end:
                out.append((int(head[0].split()[1]), json.loads(buf[head_end + 4 : end])))
                buf = buf[end:]
                continue
        chunk = sock.recv(65536)
        assert chunk, "the server closed before every answer was read"
        buf += chunk
    return out


def _post(conn: http.client.HTTPConnection, payload):
    conn.request("POST", "/query/point", body=json.dumps(payload))
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestHandOff:
    def test_a_handler_error_is_a_500_and_the_connection_keeps_serving(self):
        service = _BlockingService()
        with BackgroundServer(service) as served:
            conn = http.client.HTTPConnection("127.0.0.1", served.port, timeout=30)
            try:
                status, body = _post(conn, {"n": 1, "fail": True})
                assert status == 500
                assert body == {"error": "RuntimeError: the handler broke"}
                status, body = _post(conn, {"n": 2})  # the same connection
                assert status == 200 and body["n"] == 2
            finally:
                conn.close()
        assert service.calls == [1, 2]

    def test_a_client_gone_mid_request_costs_nothing(self):
        service = _BlockingService()
        with BackgroundServer(service) as served:
            errors = []
            served._loop.call_soon_threadsafe(
                served._loop.set_exception_handler, lambda _loop, ctx: errors.append(ctx)
            )
            sock = socket.create_connection(("127.0.0.1", served.port))
            sock.sendall(_request("/query/point", {"n": 1, "block": True}))
            assert service.started.wait(30.0)
            sock.close()  # gone while the handler runs
            time.sleep(0.05)
            service.release.set()
            # The answer has nowhere to go; the server serves the next one.
            conn = http.client.HTTPConnection("127.0.0.1", served.port, timeout=30)
            try:
                assert _post(conn, {"n": 2})[0] == 200
            finally:
                conn.close()
            assert errors == []

    def test_pipelined_requests_are_answered_in_order(self):
        service = _BlockingService()
        with BackgroundServer(service) as served:
            sock = socket.create_connection(("127.0.0.1", served.port))
            try:
                wire = b"".join(
                    [
                        _request("/query/point", {"n": 0}),
                        _request("/health"),
                        _request("/query/point", {"n": 2, "fail": True}),
                        _request("/query/point", {"n": 3}),
                        _request("/health"),
                        _request("/query/point", {"n": 5}, close=True),
                    ]
                )
                sock.sendall(wire)
                answers = _read_responses(sock, 6)
            finally:
                sock.close()
        assert [status for status, _ in answers] == [200, 200, 500, 200, 200, 200]
        assert [answers[i][1]["n"] for i in (0, 3, 5)] == [0, 3, 5]
        assert answers[1][1]["status"] == answers[4][1]["status"] == "ok"
        assert service.calls == [0, 2, 3, 5]  # one at a time, in order

    def test_health_is_answered_while_a_blocking_request_runs(self):
        service = _BlockingService()
        with BackgroundServer(service) as served:
            blocked = socket.create_connection(("127.0.0.1", served.port))
            try:
                blocked.sendall(_request("/query/point", {"n": 1, "block": True}))
                assert service.started.wait(30.0)
                conn = http.client.HTTPConnection("127.0.0.1", served.port, timeout=30)
                try:
                    conn.request("GET", "/health")
                    response = conn.getresponse()
                    assert response.status == 200
                    assert json.loads(response.read())["status"] == "ok"
                finally:
                    conn.close()
                assert not service.release.is_set()  # still running
                service.release.set()
                [(status, body)] = _read_responses(blocked, 1)
                assert status == 200 and body["n"] == 1
            finally:
                blocked.close()


class TestWorkers:
    def test_the_worker_count_is_the_default_executors(self):
        cpus = getattr(os, "process_cpu_count", os.cpu_count)()
        assert _default_workers() == min(32, (cpus or 1) + 4)

    def test_threads_start_on_demand_up_to_the_bound_and_close_joins_them(self):
        workers = _Workers(max_workers=3)
        release = threading.Event()
        results = []

        async def run():
            loop = asyncio.get_running_loop()
            done = loop.create_future()

            def finished(result, error):
                results.append((result, error))
                if len(results) == 5:
                    done.set_result(None)

            for k in range(5):
                workers.submit(loop, finished, lambda k=k: release.wait(30.0) and k)
            assert len(workers._threads) == 3  # five jobs, three threads
            release.set()
            await done

        before = threading.active_count()
        asyncio.run(run())
        assert sorted(result for result, _ in results) == [0, 1, 2, 3, 4]
        assert all(error is None for _, error in results)
        # An idle thread takes the next job: no new thread starts.
        asyncio.run(_one_job(workers))
        assert len(workers._threads) == 3
        workers.close()
        assert workers._threads == [] and threading.active_count() == before

    def test_an_error_reaches_done_and_the_worker_lives_on(self):
        workers = _Workers(max_workers=1)

        def broken():
            raise ValueError("bad input")

        async def run():
            loop = asyncio.get_running_loop()
            outcomes = []
            for fn in (broken, lambda: 7):
                future = loop.create_future()
                workers.submit(loop, lambda r, e, f=future: f.set_result((r, e)), fn)
                outcomes.append(await future)
            return outcomes

        (r1, e1), (r2, e2) = asyncio.run(run())
        workers.close()
        assert r1 is None and isinstance(e1, ValueError)
        assert (r2, e2) == (7, None)

    def test_close_stops_workers_of_a_server_that_never_started(self):
        server = AsyncQueryServer(_BlockingService())

        async def run():
            # A blocking mode call through the server's own hand-off.
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            server._workers.submit(
                loop, lambda r, e: future.set_result(r), server.service.point, {"n": 4}
            )
            return await future

        assert asyncio.run(run())["n"] == 4
        assert server._workers._threads
        asyncio.run(server.close())
        assert server._workers._threads == []


async def _one_job(workers: _Workers):
    loop = asyncio.get_running_loop()
    future = loop.create_future()
    workers.submit(loop, lambda r, e: future.set_result(r), lambda: "ok")
    assert await future == "ok"
