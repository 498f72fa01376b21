"""``serve.py`` must answer exactly as the real ``cli serve`` path does.

The launcher composes the stack itself (so it can preload in batches and
run the scheduled writer); this guards it against drifting from
``repro.cli._serve_network``.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.client import HttpConnection
from benchmarks.e2e.harness import ROOT, SERVER_ENV
from benchmarks.e2e.workloads import WORKLOADS, encode_http, generate_requests, make_fixture


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _connect(port: int, child: subprocess.Popen) -> HttpConnection:
    deadline = time.monotonic() + 60.0
    while True:
        try:
            conn = HttpConnection(port)
            conn.health()
            return conn
        except OSError:
            if child.poll() is not None or time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def test_launcher_and_cli_serve_answer_byte_identically(tmp_path: Path):
    fixture = make_fixture(7, 1, tmp_path)
    requests = []
    for name, count in (("point_hot", 7), ("cold_route", 7), ("heatmap_scan", 6)):
        w = dataclasses.replace(WORKLOADS[name], preload=1.0)
        requests += generate_requests(w, fixture.tuples, 7, count=count)
    wires = [encode_http(r.mode, r.params) for r in requests]

    env = dict(os.environ, **SERVER_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    port = _free_port()
    children = []
    try:
        launcher = subprocess.Popen(
            [
                sys.executable, "-m", "benchmarks.e2e.serve",
                "--fixture", str(fixture.path), "--backend", "memory",
                "--h", "240", "--method", "naive", "--ingest-batch", "500",
            ],  # fmt: skip
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )  # fmt: skip
        children.append(launcher)
        cli = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", str(port), "--shards", "4",
            ],  # fmt: skip
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, start_new_session=True,
        )  # fmt: skip
        children.append(cli)
        ready = launcher.stdout.readline().split()
        assert ready and ready[0] == "READY", ready
        launcher_port = int(dict(w.split("=") for w in ready[1:])["port"])

        with _connect(launcher_port, launcher) as a, _connect(port, cli) as b:
            for request, wire in zip(requests, wires):
                status_a, body_a = a.roundtrip(wire)
                status_b, body_b = b.roundtrip(wire)
                assert status_a == status_b == 200, (request, body_a, body_b)
                assert body_a == body_b, request
    finally:
        for child in children:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=10)
            for pipe in (child.stdin, child.stdout):
                if pipe is not None:
                    pipe.close()
