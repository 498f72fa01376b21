"""Spawns the servers, runs the measured rounds, aggregates.

A *session* is one workload's launcher process plus the single client
connection driving it.  ``setup_s`` is timed around everything a session
needs before it can be measured: spawn, fixture load, ingest, ``/health``
and a fixed-count warm-up pass — seconds of deterministic CPU work, of
which interpreter start-up is a small part.
"""

from __future__ import annotations

import atexit
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import procstat, stats
from benchmarks.e2e.host import Calibrator, scale
from benchmarks.e2e.client import (
    Cursor,
    HttpConnection,
    RoundResult,
    WsConnection,
    drive,
)
from benchmarks.e2e.workloads import (
    Fixture,
    Request,
    StreamClock,
    Workload,
    preload_rows,
)

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent.parent
OUT = PKG / "out"

#: A round is this much closed loop between two host calibrations.
ROUND_S = 0.5

#: Threads of native libraries would add a scheduling lottery on two
#: cores; a fixed hash seed keeps dict/set order the same in every run.
SERVER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

class ServerProcess:
    """One ``serve.py`` launcher in its own process group."""

    def __init__(self, workload: Workload, fixture: Fixture, work_dir: Path) -> None:
        self.workload = workload
        self.data_dir = work_dir / "data" if workload.backend == "tiered" else None
        self.ingest_log = work_dir / "ingest-log.json" if workload.live else None
        work_dir.mkdir(parents=True, exist_ok=True)
        argv = [
            sys.executable, "-m", "benchmarks.e2e.serve",
            "--fixture", str(fixture.path),
            "--backend", workload.backend,
            "--h", str(workload.h),
            "--method", workload.method,
            "--preload-rows", str(preload_rows(workload, len(fixture.tuples))),
            "--ingest-batch", str(workload.ingest_batch),
        ]  # fmt: skip
        if self.data_dir is not None:
            argv += ["--data-dir", str(self.data_dir)]
        if workload.memory_windows is not None:
            argv += ["--memory-windows", str(workload.memory_windows)]
        if workload.live:
            argv += ["--live", "--ingest-log", str(self.ingest_log)]
        env = dict(os.environ, **SERVER_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.stderr_path = work_dir / "launcher-stderr.log"
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=env,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                start_new_session=True,
            )
        # A launcher must never outlive the harness, however it exits.
        atexit.register(self.kill)
        ready = self._line("READY")
        self.port = int(ready["port"])
        self.pid = int(ready["pid"])
        self.rows = int(ready["rows"])

    def _line(self, expect: str) -> Dict[str, str]:
        line = self.proc.stdout.readline()
        words = line.split()
        if not words or words[0] != expect:
            self.kill()
            raise RuntimeError(
                f"{self.workload.name} launcher: expected {expect!r}, got {line!r}\n"
                + self.stderr_path.read_text()[-2000:]
            )
        return dict(w.split("=", 1) for w in words[1:])

    def command(self, line: str) -> Dict[str, str]:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._line(line.split()[0].upper())

    def cpu_s(self) -> float:
        return procstat.cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return procstat.peak_rss_mb(self.pid)

    def stop(self) -> None:
        """Ask the launcher to quit (it closes the store and writes its
        ingest log), then make sure its whole group is gone."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=20.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        atexit.unregister(self.kill)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


@dataclass
class Round:
    """One stretch of closed loop and the host speed around it."""

    result: RoundResult
    server_cpu_s: float
    host: float  # multiply durations by this to get reference-speed values


@dataclass
class Session:
    """A set-up server, its client connection and what was measured on it."""

    workload: Workload
    server: ServerProcess
    conn: HttpConnection
    cursor: Cursor
    setup_s: float  # scaled to reference host speed
    warmup: RoundResult
    ws: Optional[WsConnection] = None
    clock: Optional[StreamClock] = None
    _resumed_at: float = 0.0  # live writer running since (0: paused)
    _stretch: float = 1.0  # ... on a schedule stretched by this much
    rounds: List[Round] = field(default_factory=list)
    quiet: List[Round] = field(default_factory=list)  # live writer paused

    def stream_t(self) -> float:
        running = time.monotonic() - self._resumed_at if self._resumed_at else None
        return self.clock.stream_t(running, self._stretch)

    def visit(self, seconds: float, calibrator: Calibrator, quiet: bool = False) -> None:
        """Measure for ``seconds``: rounds of closed loop, a host calibration
        before, between and after.  The live writer runs during the rounds
        only, so a calibration measures the host and nothing else, and its
        schedule is stretched by the slowdown the last calibration found
        (see ``serve.ScheduledWriter``)."""
        live = self.workload.live and not quiet
        end = time.perf_counter() + seconds
        before = calibrator.factor()
        while True:
            if live:
                self._stretch = 1.0 / before  # ingest is interpreter-bound
                self.server.command(f"resume {self._stretch:.4f}")
                self._resumed_at = time.monotonic()
            cpu0 = self.server.cpu_s()
            result = drive(
                self.conn,
                self.cursor,
                seconds=ROUND_S,
                stream_t=self.stream_t if self.workload.live else None,
                ws=self.ws,
            )
            if live:
                self.clock.rows = int(self.server.command("pause")["rows"])
                self._resumed_at = 0.0
            cpu = self.server.cpu_s() - cpu0
            after = calibrator.factor()
            (self.quiet if quiet else self.rounds).append(
                Round(result, cpu, scale(before, after, self.workload.host_exponent))
            )
            before = after
            if time.perf_counter() + ROUND_S > end:
                break

    def attempted_and_errors(self) -> Tuple[int, int]:
        """Over everything this session sent: warm-up, rounds, quiet rounds."""
        results = [r.result for r in self.rounds + self.quiet] + [self.warmup]
        return sum(r.attempted for r in results), sum(r.errors for r in results)

    def close(self) -> None:
        self.conn.close()
        if self.ws is not None:
            self.ws.close()
        self.server.stop()


def start_session(
    workload: Workload,
    fixture: Fixture,
    requests: List[Request],
    work_dir: Path,
    calibrator: Calibrator,
    subscriptions: Optional[List[Dict[str, Any]]] = None,
) -> Session:
    """Spawn -> ``/health`` answers -> warm-up pass done, timed as ``setup_s``."""
    before = calibrator.factor()
    start = time.perf_counter()
    server = ServerProcess(workload, fixture, work_dir)
    try:
        conn = HttpConnection(server.port)
        conn.health()
        cursor = Cursor(requests)
        clock = ws = None
        if workload.live:
            clock = StreamClock(fixture.tuples.t, server.rows)
            ws = WsConnection(server.port)
            for frame in subscriptions or ():
                ws.send(frame)
                reply = ws.receive()
                if reply.get("mode") != "subscribed":
                    raise RuntimeError(f"subscribe refused: {reply}")
        head_t = clock.stream_t() if clock is not None else None
        result = drive(
            conn,
            cursor,
            count=workload.warmup,
            stream_t=(lambda: head_t) if clock is not None else None,
            ws=ws,
            capture=workload.oracle,
        )
        wall = time.perf_counter() - start
    except BaseException:
        server.kill()
        raise
    return Session(
        workload=workload,
        server=server,
        conn=conn,
        cursor=cursor,
        setup_s=wall * scale(before, calibrator.factor(), workload.host_exponent),
        warmup=result,
        ws=ws,
        clock=clock,
    )


# -- aggregation -------------------------------------------------------------------

Metric = Tuple[float, str]


def scaled_latencies(rounds: List[Round]) -> List[float]:
    return [v * r.host for r in rounds for v in r.result.latencies_ms]


def end_to_end(session: Session, setup_s: List[float]) -> Dict[str, Metric]:
    """The end-to-end metrics of one workload from its measured rounds.

    Every duration is scaled to reference host speed by its own round's
    calibration.  ``throughput_rps`` and ``server_cpu_ms_per_req`` are
    medians over the rounds; the latency percentiles are over the pooled
    samples of all rounds.
    """
    rounds = session.rounds
    pooled = scaled_latencies(rounds)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "throughput_rps": (
            stats.median_of_rounds(
                r.result.ok / r.result.wall_s / r.host for r in rounds
            ),
            "1/s",
        ),
        "latency_p50_ms": (stats.percentile(pooled, 50), "ms"),
        "latency_p95_ms": (stats.percentile(pooled, 95), "ms"),
        "server_cpu_ms_per_req": (
            stats.median_of_rounds(
                r.server_cpu_s * 1e3 * r.host / max(r.result.ok, 1) for r in rounds
            ),
            "ms",
        ),
        "peak_rss_mb": (session.server.peak_rss_mb(), "MB"),
    }


def new_work_dir(tag: str) -> Path:
    path = OUT / f"work-{os.getpid()}" / tag
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_work_dirs() -> None:
    shutil.rmtree(OUT / f"work-{os.getpid()}", ignore_errors=True)
