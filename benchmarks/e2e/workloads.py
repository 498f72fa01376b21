"""Workload definitions, the seeded fixture and the seeded request lists.

Everything a run feeds the server is a pure function of ``--seed``: the
``lausanne`` fixture (its generator takes the seed) and, per workload, a
list of :data:`N_REQUESTS` requests the client cycles through.  The
server only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset
from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox

N_SHARDS = 4
N_REQUESTS = 8192
COLUMNS = ("t", "x", "y", "s")

#: ``live_mixed`` ingest schedule (open loop): one batch every
#: ``LIVE_BATCH_ROWS / LIVE_ROWS_PER_S`` seconds, whatever the server does.
LIVE_ROWS_PER_S = 2000
LIVE_BATCH_ROWS = 100
LIVE_SUBSCRIPTIONS = 8
LIVE_MAX_LAG_S = 7200.0



@dataclass(frozen=True)
class Workload:
    """One traffic mix and the backend it is served from."""

    name: str
    why: str
    backend: str  # "memory" (ShardRouter) | "tiered" (TieredShardRouter)
    h: int
    method: str
    memory_windows: Optional[int] = None
    preload: float = 1.0  # share of the fixture ingested before serving
    ingest_batch: int = 500  # rows per batch while preloading
    live: bool = False  # scheduled writer + standing subscriptions
    warmup: int = 1000  # requests in the fixed-count warm-up pass
    oracle: int = 64  # warm-up bodies compared byte-for-byte
    trace_n: int = 1000  # requests replayed by the traced run
    #: How strongly the workload's speed follows the calibration kernel's
    #: (see ``host.py``): the slope of log throughput on log kernel speed
    #: over a few hundred rounds.  Interpreter-bound request paths track
    #: the kernel one for one; bulk numpy scans are slowed about half as
    #: much by whatever slows the host, and the live mix (fsync waits,
    #: zlib, cover fits) lies between.
    host_exponent: float = 1.0


#: Sized so three set-ups plus ten measured seconds fit the ~35 s a run may
#: take: the tiered workloads serve a prefix of the 30-day stream (a
#: 176 000-row tiered ingest alone is 4 s), still ~30x their resident cap.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="point_hot",
            why="Point queries on the newest windows answered from cached "
            "model covers: all cache hits, so the async front end and plan "
            "build dominate and the scan does almost nothing.",
            backend="memory",
            h=240,
            method="model-cover",
            warmup=3000,
            trace_n=1000,
        ),
        Workload(
            name="heatmap_scan",
            why="40x30 heatmaps at uniform times over 30 days with naive "
            "scans: executor scan+gather is over 85% of the time and the "
            "front end under 5%, so a scan change shows here only.",
            backend="memory",
            h=2000,
            method="naive",
            warmup=60,
            oracle=16,
            trace_n=60,
            host_exponent=0.5,
        ),
        Workload(
            name="cold_route",
            why="6 h route queries at uniform times over 10 days of a tiered "
            "store keeping 32 of ~980 slices resident: most windows fault in "
            "from segment files, so the storage read path dominates.",
            backend="tiered",
            h=240,
            method="naive",
            memory_windows=32,
            preload=1 / 3,
            ingest_batch=4000,
            warmup=150,
            trace_n=200,
        ),
        Workload(
            name="live_mixed",
            why="70% point / 30% route reads at the stream head while a "
            "scheduled writer ingests 2000 rows/s and 8 subscriptions are "
            "maintained: WAL, seals and cover re-fits beside reads.",
            backend="tiered",
            h=240,
            method="model-cover",
            memory_windows=256,
            preload=1 / 4,
            ingest_batch=4000,
            live=True,
            warmup=600,
            trace_n=300,
            host_exponent=0.7,
        ),
    )
}


# -- fixture -------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """The generated stream, on disk (for the servers) and in memory."""

    path: Path
    tuples: TupleBatch
    gen_s: float  # 0.0 when an earlier run's columns were reused

    @property
    def bbox(self) -> BoundingBox:
        return covered_bbox(self.tuples)


def covered_bbox(tuples: TupleBatch) -> BoundingBox:
    """Same box as ``LausanneDataset.covered_bbox`` without the Python loop."""
    return BoundingBox(
        tuples.x.min(), tuples.y.min(), tuples.x.max(), tuples.y.max()
    )


def load_columns(path: Path) -> TupleBatch:
    return TupleBatch(*(np.load(path / f"{c}.npy") for c in COLUMNS))


def make_fixture(seed: int, days: int, out_dir: Path) -> Fixture:
    """Generate the ``lausanne`` stream for ``seed`` (or reuse its columns).

    ``days=30`` is the paper-scale 176 000-tuple set; ``days=1`` is the
    ~6 000-tuple set the tests and ``--smoke`` use.
    """
    path = out_dir / f"fixture-{days}d-seed{seed}"
    if (path / "done").exists():
        return Fixture(path, load_columns(path), 0.0)
    start = time.perf_counter()
    config = LausanneConfig(
        days=days, seed=seed, target_tuples=176_000 if days == 30 else 0
    )
    tuples = generate_lausanne_dataset(config).tuples
    gen_s = time.perf_counter() - start
    path.mkdir(parents=True, exist_ok=True)
    for c in COLUMNS:
        np.save(path / f"{c}.npy", getattr(tuples, c))
    (path / "done").touch()
    return Fixture(path, tuples, gen_s)


# -- requests ------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One query.  ``lag_s`` marks a ``live_mixed`` request: its time field
    is left out of ``params`` and stamped at send time with the stream time
    the ingest schedule has reached, minus the lag."""

    mode: str  # "point" | "continuous" | "heatmap"
    params: Dict[str, Any]
    lag_s: Optional[float] = None

    @property
    def time_key(self) -> str:
        return "t_start" if self.mode == "continuous" else "t"

    def stamped(self, stream_t: float) -> Dict[str, Any]:
        if self.lag_s is None:
            return self.params
        return {**self.params, self.time_key: round(stream_t - self.lag_s, 3)}


def encode_http(mode: str, params: Dict[str, Any]) -> bytes:
    body = json.dumps(params, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST /query/{mode} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def _near_route(tuples: TupleBatch, rng, jitter_m: float = 50.0) -> List[float]:
    """A position near a sensed one (the data only exists along the routes)."""
    i = int(rng.integers(0, len(tuples)))
    return [
        round(float(tuples.x[i] + rng.normal(0.0, jitter_m)), 2),
        round(float(tuples.y[i] + rng.normal(0.0, jitter_m)), 2),
    ]


def _waypoints(tuples: TupleBatch, rng, count: int = 4) -> List[List[float]]:
    """``count`` sensed positions a short stretch of the stream apart."""
    stride = 30
    i = int(rng.integers(0, max(1, len(tuples) - count * stride)))
    rows = [min(i + k * stride, len(tuples) - 1) for k in range(count)]
    return [
        [round(float(tuples.x[r]), 2), round(float(tuples.y[r]), 2)] for r in rows
    ]


def generate_requests(
    workload: Workload, tuples: TupleBatch, seed: int, count: int = N_REQUESTS
) -> List[Request]:
    """The workload's request list: a pure function of its arguments."""
    rng = _rng(seed, workload.name)
    if not workload.live:  # static workloads query what is preloaded
        tuples = tuples.slice(0, preload_rows(workload, len(tuples)))
    t = tuples.t
    t_first, t_last = float(t[0]), float(t[-1])
    out: List[Request] = []
    if workload.name == "point_hot":
        t_hot = float(t[max(0, len(t) - 1500)])
        for _ in range(count):
            x, y = _near_route(tuples, rng)
            out.append(
                Request(
                    "point",
                    {"t": round(float(rng.uniform(t_hot, t_last)), 3), "x": x, "y": y},
                )
            )
    elif workload.name == "heatmap_scan":
        box = covered_bbox(tuples)
        bounds = [float(box.min_x), float(box.min_y), float(box.max_x), float(box.max_y)]
        for _ in range(count):
            out.append(
                Request(
                    "heatmap",
                    {
                        "t": round(float(rng.uniform(t_first, t_last)), 3),
                        "bounds": bounds,
                        "nx": 40,
                        "ny": 30,
                    },
                )
            )
    elif workload.name == "cold_route":
        duration_s = 21_600.0
        for _ in range(count):
            out.append(
                Request(
                    "continuous",
                    {
                        "route": _waypoints(tuples, rng),
                        "t_start": round(
                            float(rng.uniform(t_first, max(t_first, t_last - duration_s))), 3
                        ),
                        "duration_s": duration_s,
                        "updates": 60,
                    },
                )
            )
    elif workload.name == "live_mixed":
        for _ in range(count):
            lag_s = float(rng.uniform(0.0, LIVE_MAX_LAG_S))
            if rng.random() < 0.7:
                x, y = _near_route(tuples, rng)
                out.append(Request("point", {"x": x, "y": y}, lag_s))
            else:
                out.append(
                    Request(
                        "continuous",
                        {
                            "route": _waypoints(tuples, rng),
                            "duration_s": 1800.0,
                            "updates": 30,
                        },
                        lag_s,
                    )
                )
    else:
        raise ValueError(f"no request generator for workload {workload.name!r}")
    return out


def preload_rows(workload: Workload, n_rows: int) -> int:
    return int(n_rows * workload.preload)


def subscription_frames(
    workload: Workload, tuples: TupleBatch, seed: int
) -> List[Dict[str, Any]]:
    """The standing route subscriptions ``live_mixed`` holds on ``/ws``.

    Each spreads its 30 update points over the part of the stream still to
    be ingested, so the writer keeps changing answers for the whole run.
    """
    rng = _rng(seed, workload.name + "/subscriptions")
    head = preload_rows(workload, len(tuples))
    t_head, t_last = float(tuples.t[max(head - 1, 0)]), float(tuples.t[-1])
    updates = 30
    frames = []
    for _ in range(LIVE_SUBSCRIPTIONS):
        t_start = t_head + float(rng.uniform(0.0, 43_200.0))
        frames.append(
            {
                "mode": "subscribe",
                "route": _waypoints(tuples, rng),
                "t_start": round(t_start, 3),
                "interval_s": round(max(60.0, (t_last - t_start) / updates), 3),
                "updates": updates,
            }
        )
    return frames


class StreamClock:
    """Stream time the ``live_mixed`` ingest schedule has reached.

    Between the launcher's acknowledgements (which carry its row count)
    the client derives it from the schedule alone — rows per second, how
    long the writer has been running, at which stretch — so stamping a
    request needs no answer from the server.
    """

    def __init__(self, t: np.ndarray, rows: int) -> None:
        self._t = t
        self.rows = rows  # ingested, as last acknowledged by the launcher

    def rows_at(self, seconds: Optional[float] = None, stretch: float = 1.0) -> int:
        """Rows scheduled ``seconds`` after the writer was resumed (batch 0
        is due at once); ``None``: the writer is paused."""
        due = (
            0
            if seconds is None
            else int(seconds * LIVE_ROWS_PER_S / (LIVE_BATCH_ROWS * stretch)) + 1
        )
        return min(len(self._t), self.rows + due * LIVE_BATCH_ROWS)

    def stream_t(self, seconds: Optional[float] = None, stretch: float = 1.0) -> float:
        return float(self._t[max(self.rows_at(seconds, stretch) - 1, 0)])
