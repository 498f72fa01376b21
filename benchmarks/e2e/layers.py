"""The in-process side: the oracle and the traced run's per-layer numbers.

Both need a backend built exactly like the launcher's, in this process:
the oracle to produce the bytes every captured response must equal, the
traced run to time each layer of the same requests (``trace.py``).
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.server.async_server import EngineQueryService
from repro.storage.segments import read_segment, write_segment
from repro.storage.sketch import WindowSketch
from repro.storage.wal import WriteAheadLog

from benchmarks.e2e import stats, trace
from benchmarks.e2e.backend import Stack, build_router, build_stack
from benchmarks.e2e.harness import ROUND_S, Metric, Session, scaled_latencies
from benchmarks.e2e.host import Calibrator, scale
from benchmarks.e2e.workloads import (
    LIVE_BATCH_ROWS,
    Fixture,
    Request,
    Workload,
    preload_rows,
)

#: ``live_mixed`` replay: one writer batch (and a maintenance pass) per
#: this many requests, single-threaded, so its counts repeat exactly.
LIVE_REQUESTS_PER_BATCH = 3


@dataclass
class LocalStack:
    """The launcher's stack, built in this process."""

    stack: Stack
    recorder: trace.Recorder
    traced_service: EngineQueryService
    ingest_batch_s: List[float]  # scaled seconds per preload batch
    rows: int

    def close(self) -> None:
        self.stack.close()


def build_local(
    workload: Workload, fixture: Fixture, work_dir: Path, calibrator: Calibrator
) -> LocalStack:
    recorder = trace.Recorder()
    recorder.enabled = False
    data_dir = work_dir / "local-data" if workload.backend == "tiered" else None
    router = build_router(
        workload.backend, fixture.bbox, workload.h, data_dir, workload.memory_windows
    )
    head = preload_rows(workload, len(fixture.tuples))
    before = calibrator.factor()
    batch_s = []
    for lo in range(0, head, workload.ingest_batch):
        start = time.perf_counter()
        router.ingest(fixture.tuples.slice(lo, min(lo + workload.ingest_batch, head)))
        batch_s.append(time.perf_counter() - start)
    host = scale(before, calibrator.factor(), workload.host_exponent)
    stack = build_stack(
        router,
        workload.method,
        subscriptions=workload.live,
        wrap_router=lambda r: trace.RouterProxy(r, recorder),
    )
    traced = EngineQueryService(
        trace.EngineProxy(stack.engine, recorder),
        method=workload.method,
        subscriptions=stack.registry,
    )
    return LocalStack(stack, recorder, traced, [s * host for s in batch_s], head)


def oracle_mismatches(session: Session, local: LocalStack) -> int:
    """Captured warm-up bodies that differ from what the in-process stack
    answers for the same parameters (compared byte for byte)."""
    wrong = 0
    for request, params, body in session.warmup.captured:
        expected = json.dumps(getattr(local.stack.service, request.mode)(params))
        wrong += expected.encode("utf-8") != body
    return wrong


# -- the traced replay ---------------------------------------------------------------


@dataclass
class Replay:
    """One pass over the first ``2 * trace_n`` requests, alternately
    untraced and traced, so both kinds see the same host and the same
    cache state and differ only by the tracing."""

    plain_s: List[float] = field(default_factory=list)  # scaled, per request
    traced_s: List[float] = field(default_factory=list)
    host: Dict[int, float] = field(default_factory=dict)  # by request id
    bodies: List[int] = field(default_factory=list)  # response sizes
    ingest_s: List[float] = field(default_factory=list)  # live: scaled per batch

    @property
    def requests(self) -> int:
        return len(self.plain_s) + len(self.traced_s)


def replay(
    workload: Workload,
    fixture: Fixture,
    local: LocalStack,
    requests: List[Request],
    calibrator: Calibrator,
) -> Replay:
    """Runs on a worker thread, as the server's handlers do: on the main
    thread glibc serves numpy's large temporaries from the main arena,
    which makes the scan-heavy requests ~25% slower than in the server."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(
            _replay, workload, fixture, local, requests, calibrator
        ).result()


def _replay(workload, fixture, local, requests, calibrator) -> Replay:
    rec = local.recorder
    router, registry = local.stack.router, local.stack.registry
    tuples = fixture.tuples
    out = Replay()
    n = min(2 * workload.trace_n, len(requests))
    i = 0
    before = calibrator.factor()
    while i < n:
        start = time.perf_counter()
        first = i
        raw: List[float] = []
        raw_ingest: List[float] = []
        while i < n and time.perf_counter() - start < ROUND_S:
            if workload.live and i % LIVE_REQUESTS_PER_BATCH == 0 and local.rows < len(tuples):
                stop = min(local.rows + LIVE_BATCH_ROWS, len(tuples))
                t0 = time.perf_counter()
                router.ingest(tuples.slice(local.rows, stop))
                raw_ingest.append(time.perf_counter() - t0)
                local.rows = stop
                registry.notify_ingest()
                rec.request = -1
                rec.enabled = True
                with rec.span(MAINTAIN):
                    registry.maintain()
            request = requests[i]
            body = json.dumps(
                request.stamped(float(tuples.t[local.rows - 1])), separators=(",", ":")
            ).encode("utf-8")
            traced = bool(i % 2)
            rec.enabled = traced
            rec.request = i
            service = local.traced_service if traced else local.stack.service
            t0 = time.perf_counter()
            answer = trace.answer(service, request.mode, body, rec if traced else None)
            raw.append(time.perf_counter() - t0)
            out.bodies.append(len(answer))
            i += 1
        after = calibrator.factor()
        host = scale(before, after, workload.host_exponent)
        before = after
        for k, v in enumerate(raw):
            (out.traced_s if (first + k) % 2 else out.plain_s).append(v * host)
            out.host[first + k] = host
        out.ingest_s += [v * host for v in raw_ingest]
    rec.request = -1
    rec.enabled = False
    return out


MAINTAIN = "query.subscriptions.maintain"


def _p50_ms(values) -> float:
    values = list(values)
    return stats.percentile(values, 50) * 1e3 if values else 0.0


def _counters(local: LocalStack) -> Dict[str, float]:
    engine, router, registry = local.stack.engine, local.stack.router, local.stack.registry
    out: Dict[str, float] = {
        f"cache.{k}": v for k, v in engine.cache_stats.as_dict().items()
    }
    out.update({f"prune.{k}": v for k, v in engine.prune_stats.as_dict().items()})
    if hasattr(router, "tier_stats"):
        out.update({f"tier.{k}": v for k, v in router.tier_stats().items()})
    if registry is not None:
        s = registry.stats
        out.update(
            {
                "subs.maintains": s.maintains,
                "subs.reexecuted": s.subs_reexecuted,
                "subs.updates": s.updates_delivered,
            }
        )
    return out


def _storage_micro(
    fixture: Fixture, workload: Workload, work_dir: Path, calibrator: Calibrator
) -> Dict[str, Metric]:
    """Direct ``WriteAheadLog.append`` / ``write_segment`` / ``read_segment``
    calls on one representative slice (the first ``h`` rows) in a scratch
    directory: the storage layers' unit costs, free of the router."""
    scratch = work_dir / "storage-micro"
    scratch.mkdir(parents=True, exist_ok=True)
    rows = fixture.tuples.slice(0, workload.h)
    gids = np.arange(len(rows), dtype=np.int64)
    batch = fixture.tuples.slice(0, LIVE_BATCH_ROWS)
    before = calibrator.factor()
    append_s, write_s, read_s = [], [], []
    with WriteAheadLog(scratch / "wal.log") as wal:
        for k in range(30):
            t0 = time.perf_counter()
            wal.append(k * len(batch), batch)
            append_s.append(time.perf_counter() - t0)
    wal_bytes = (scratch / "wal.log").stat().st_size
    path = scratch / "segment.seg"
    for _ in range(15):
        t0 = time.perf_counter()
        size = write_segment(
            path, shard=0, window_c=0, h=workload.h, stamp=1, batch=rows,
            gids=gids, sketch=WindowSketch.of(rows),
        )  # fmt: skip
        write_s.append(time.perf_counter() - t0)
    for _ in range(30):
        t0 = time.perf_counter()
        read_segment(path)
        read_s.append(time.perf_counter() - t0)
    host = scale(before, calibrator.factor(), 1.0)  # interpreter + syscalls
    shutil.rmtree(scratch, ignore_errors=True)
    return {
        "storage.wal.append_ms_p50": (_p50_ms(append_s) * host, "ms"),
        "storage.wal.bytes_per_row": (wal_bytes / (30 * len(batch)), "B"),
        "storage.segments.write_ms_p50": (_p50_ms(write_s) * host, "ms"),
        "storage.segments.read_ms_p50": (_p50_ms(read_s) * host, "ms"),
        "storage.segments.bytes_per_user_byte": (size / (len(rows) * 5 * 8), "ratio"),
    }


def per_layer(
    workload: Workload,
    fixture: Fixture,
    requests: List[Request],
    session: Session,
    local: LocalStack,
    work_dir: Path,
    calibrator: Calibrator,
    health_rtt_ms: List[float],
    ingest_log: List[List[float]],
    subscriptions: Optional[List[Dict[str, Any]]],
    trace_path: Path,
) -> Dict[str, Metric]:
    """Every per-layer metric of one workload: an untraced and a traced
    replay in this process, plus what the socket run observed."""
    registry = local.stack.registry
    for frame in subscriptions or ():
        registry.subscribe(
            frame["route"], frame["t_start"], interval_s=frame["interval_s"],
            count=frame["updates"],
        )  # fmt: skip
    base = _counters(local)
    run = replay(workload, fixture, local, requests, calibrator)
    delta = {k: (v - base.get(k, 0)) for k, v in _counters(local).items()}
    n = run.requests  # the counters saw every request, traced or not
    traced_ids = [i for i in range(n) if i % 2]

    spans = local.recorder.spans
    typical = statistics.median(run.host.values())
    scale = [run.host.get(s.request, typical) for s in spans]
    durations = trace.per_request(spans, [s.duration * h for s, h in zip(spans, scale)])
    selfs = trace.per_request(
        spans, [v * h for v, h in zip(trace.self_times(spans), scale)]
    )
    counts = trace.per_request(spans, [1.0] * len(spans))
    trace.dump(spans, trace_path)

    def dur(name: str, table=durations) -> float:
        return _p50_ms(table[name].get(i, 0.0) for i in traced_ids)

    kept = delta.get("prune.ops_kept", 0)
    pruned = delta.get("prune.ops_pruned", 0)
    lookups = delta.get("cache.hits", 0) + delta.get("cache.misses", 0)
    faults = [
        s.duration * h for s, h in zip(spans, scale) if s.name == trace.FAULT
    ]
    maintains = [
        s.duration * h for s, h in zip(spans, scale) if s.name == MAINTAIN
    ]

    rounds = session.rounds
    pooled = scaled_latencies(rounds)
    raw = [v for r in rounds for v in r.result.latencies_ms]
    ok = sum(r.result.ok for r in rounds)
    e2e_p50 = stats.percentile(pooled, 50)
    service_p50 = _p50_ms(run.plain_s)
    readings = calibrator.readings
    tiered = workload.backend == "tiered"
    ingest_rate = (
        workload.ingest_batch * len(local.ingest_batch_s) / sum(local.ingest_batch_s)
        if local.ingest_batch_s
        else 0.0
    )

    out: Dict[str, Metric] = {
        "client.latency_p99_ms": (stats.percentile(pooled, 99), "ms"),
        "client.latency_max_ms": (max(pooled), "ms"),
        "client.requests": (ok, "count"),
        "client.cpu_ms_per_req": (
            sum(r.result.client_cpu_s * r.host for r in rounds) * 1e3 / max(ok, 1),
            "ms",
        ),
        "client.raw_throughput_rps": (
            statistics.median(r.result.ok / r.result.wall_s for r in rounds),
            "1/s",
        ),
        "client.raw_latency_p50_ms": (stats.percentile(raw, 50), "ms"),
        "client.raw_latency_p95_ms": (stats.percentile(raw, 95), "ms"),
        "host.calib_ops_share": (statistics.median(readings), "ratio"),
        "host.calib_spread": (stats.spread(readings), "ratio"),
        "fixture.gen_s": (fixture.gen_s, "s"),
        "trace.overhead_share": (
            statistics.mean(run.traced_s) / statistics.mean(run.plain_s) - 1.0,
            "ratio",
        ),
        "server.async_server.health_rtt_ms_p50": (
            stats.percentile(health_rtt_ms, 50), "ms",
        ),  # fmt: skip
        "server.async_server.transport_ms_p50": (e2e_p50 - service_p50, "ms"),
        "server.async_server.parse_ms_p50": (dur(trace.PARSE), "ms"),
        "server.async_server.shape_ms_p50": (dur(trace.SERVICE, selfs), "ms"),
        "server.async_server.serialise_ms_p50": (dur(trace.SERIALISE), "ms"),
        "server.async_server.response_bytes_p50": (
            stats.percentile(run.bodies, 50), "B",
        ),  # fmt: skip
        "query.pipeline.planner.plan_ms_p50": (dur(trace.PLAN, selfs), "ms"),
        "query.pipeline.planner.ops_kept_per_req": (kept / n, "count"),
        "query.pipeline.planner.ops_pruned_share": (
            pruned / (pruned + kept) if pruned + kept else 0.0, "ratio",
        ),  # fmt: skip
        "query.pipeline.binding.bind_ms_p50": (
            _p50_ms(
                durations[trace.BIND_SLICE].get(i, 0.0)
                + durations[trace.BIND_WINDOWS].get(i, 0.0)
                for i in traced_ids
            ),
            "ms",
        ),
        "query.pipeline.binding.slices_bound_per_req": (
            sum(counts[trace.BIND_SLICE].values()) / len(traced_ids), "count",
        ),  # fmt: skip
        "query.pipeline.executor.execute_ms_p50": (dur(trace.EXECUTE), "ms"),
        "query.pipeline.executor.scan_ms_p50": (dur(trace.SCAN), "ms"),
        "query.pipeline.executor.gather_ms_p50": (dur(trace.EXECUTE, selfs), "ms"),
        "query.pipeline.cache.hit_rate": (
            delta.get("cache.hits", 0) / lookups if lookups else 0.0, "ratio",
        ),  # fmt: skip
        "query.pipeline.cache.misses_per_req": (delta.get("cache.misses", 0) / n, "count"),
        "query.pipeline.cache.evictions": (delta.get("cache.evictions", 0), "count"),
        "query.pipeline.cache.stale": (delta.get("cache.stale", 0), "count"),
        "storage.shards.ingest_rows_per_s": (0.0 if tiered else ingest_rate, "1/s"),
        "storage.shards.ingest_batch_ms_p50": (
            0.0 if tiered else _p50_ms(local.ingest_batch_s), "ms",
        ),  # fmt: skip
        "storage.tiered.ingest_rows_per_s": (ingest_rate if tiered else 0.0, "1/s"),
        "storage.tiered.ingest_batch_ms_p50": (
            _p50_ms(run.ingest_s or local.ingest_batch_s) if tiered else 0.0, "ms",
        ),  # fmt: skip
        "storage.tiered.ingest_lag_ms_p95": (
            stats.percentile([(b[1] - b[0]) * 1e3 for b in ingest_log], 95)
            if ingest_log
            else 0.0,
            "ms",
        ),
        "storage.tiered.faults_per_req": (delta.get("tier.faults", 0) / n, "count"),
        "storage.tiered.evictions_per_req": (delta.get("tier.evictions", 0) / n, "count"),
        "storage.tiered.fault_ms_p50": (_p50_ms(faults), "ms"),
        "storage.tiered.resident_peak": (
            local.stack.router.tier_stats()["peak_resident"] if tiered else 0, "count",
        ),  # fmt: skip
        "storage.wal.appends": (delta.get("tier.wal_appends", 0), "count"),
        "storage.wal.checkpoints": (delta.get("tier.wal_checkpoints", 0), "count"),
        "storage.segments.written": (delta.get("tier.segments_written", 0), "count"),
        "query.subscriptions.maintain_ms_p50": (_p50_ms(maintains), "ms"),
        "query.subscriptions.reexecuted_share": (
            delta.get("subs.reexecuted", 0)
            / (delta["subs.maintains"] * len(subscriptions))
            if subscriptions and delta.get("subs.maintains")
            else 0.0,
            "ratio",
        ),
    }
    out.update(_storage_micro(fixture, workload, work_dir, calibrator))
    out.update(_push_metrics(session, ingest_log))
    quiet = scaled_latencies(session.quiet)
    out["live_mixed.interference_ratio"] = (
        e2e_p50 / stats.percentile(quiet, 50) if quiet else 0.0,
        "ratio",
    )
    return out


def _push_metrics(session: Session, ingest_log: List[List[float]]) -> Dict[str, Metric]:
    """``/ws`` frames the socket run received.  Each update names the
    stream length it was computed at, so its latency runs from the moment
    the launcher finished ingesting that row count to the frame's arrival
    (both on ``time.monotonic`` of one host)."""
    done_at = {int(b[3]): b[2] for b in ingest_log}
    latencies = []
    received = 0
    for r in session.rounds:
        for at, frame in r.result.pushes:
            received += 1
            rows = json.loads(frame).get("rows")
            if rows in done_at:
                latencies.append((at - done_at[rows]) * 1e3 * r.host)
    return {
        "query.subscriptions.updates_received": (received, "count"),
        "query.subscriptions.push_latency_ms_p50": (
            stats.percentile(latencies, 50) if latencies else 0.0,
            "ms",
        ),
    }
