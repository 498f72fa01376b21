"""Command line of the end-to-end benchmark.

Three ways to run it (``PYTHONPATH=src`` from the repo root, or through
``run.py``, which finds ``src`` itself):

* ``python -m benchmarks.e2e --seed 7`` — the full harness: all four
  servers set up, then ``VISITS`` interleaved visits of ``VISIT_S``
  seconds each in rotating order, then the traced runs;
* ``... --workload NAME --seed N --seconds S --trace 0|1`` — one workload,
  the form ``BENCHMARK.json`` names: ``--trace 0`` sets up ``SETUPS``
  times and prints the end-to-end metrics, ``--trace 1`` the per-layer
  ones.  The last line of output is one JSON object;
* ``... --selfcheck`` — two sets of full invocations of the same code,
  alternating, whose medians must agree within the bounds.

``--smoke`` shrinks everything (1-day fixture, one 1 s visit, at most 50
traced requests) to exercise every code path in about 15 s.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from benchmarks.e2e import harness, layers, stats
from benchmarks.e2e.harness import Metric, Session
from benchmarks.e2e.host import Calibrator, pin_to_one_cpu, scale
from benchmarks.e2e.workloads import (
    WORKLOADS,
    Fixture,
    Request,
    Workload,
    generate_requests,
    make_fixture,
    subscription_frames,
)

VISITS = 6
VISIT_S = 5.0
SETUPS = 3  # set-ups per workload and run; setup_s is their median
HEALTH_PROBES = 200
SELFCHECK_RUNS = 3  # per set


@dataclasses.dataclass
class Prepared:
    workload: Workload
    requests: List[Request]
    subscriptions: Optional[List[Dict[str, Any]]]


def prepare(name: str, fixture: Fixture, seed: int, smoke: bool) -> Prepared:
    workload = WORKLOADS[name]
    if smoke:
        workload = dataclasses.replace(
            workload,
            warmup=max(8, workload.warmup // 10),
            oracle=8,
            trace_n=min(50, workload.trace_n // 4),
        )
    return Prepared(
        workload,
        generate_requests(workload, fixture.tuples, seed),
        subscription_frames(workload, fixture.tuples, seed) if workload.live else None,
    )


def start(prep: Prepared, fixture: Fixture, calibrator: Calibrator, tag: str) -> Session:
    return harness.start_session(
        prep.workload,
        fixture,
        prep.requests,
        harness.new_work_dir(f"{prep.workload.name}-{tag}"),
        calibrator,
        prep.subscriptions,
    )


def set_up(
    prep: Prepared, fixture: Fixture, calibrator: Calibrator, times: int
) -> Tuple[Session, List[float]]:
    """Set the workload up ``times`` times; every ``setup_s`` and the last
    session (the one that gets measured) come back."""
    setups: List[float] = []
    session = None
    for k in range(times):
        if session is not None:
            session.close()
        session = start(prep, fixture, calibrator, f"setup{k}")
        setups.append(session.setup_s)
    return session, setups


def health_rtt_ms(session: Session, calibrator: Calibrator) -> List[float]:
    """Socket + event-loop floor: ``/health`` needs no executor hop."""
    before = calibrator.factor()
    raw = []
    for _ in range(HEALTH_PROBES):
        t0 = time.perf_counter()
        session.conn.health()
        raw.append((time.perf_counter() - t0) * 1e3)
    host = scale(before, calibrator.factor(), 1.0)  # no numpy on this path
    return [v * host for v in raw]


@dataclasses.dataclass
class Outcome:
    """One workload's numbers, as printed."""

    end_to_end: Dict[str, Metric]
    per_layer: Optional[Dict[str, Metric]]
    attempted: int
    failed: int


def finish(
    prep: Prepared,
    session: Session,
    setups: List[float],
    fixture: Fixture,
    calibrator: Calibrator,
    want_layers: bool,
    rtt_ms: List[float],
) -> Outcome:
    """Aggregate a measured session, stop its server, run the in-process
    side (oracle, and the traced replay when ``want_layers``)."""
    e2e = harness.end_to_end(session, setups)
    ingest_log_path = session.server.ingest_log
    session.close()
    ingest_log = (
        json.loads(ingest_log_path.read_text())
        if ingest_log_path is not None and ingest_log_path.exists()
        else []
    )
    work_dir = harness.new_work_dir(f"{prep.workload.name}-local")
    local = layers.build_local(prep.workload, fixture, work_dir, calibrator)
    try:
        wrong = layers.oracle_mismatches(session, local)
        per_layer = None
        if want_layers:
            harness.OUT.mkdir(parents=True, exist_ok=True)
            per_layer = layers.per_layer(
                prep.workload, fixture, prep.requests, session, local, work_dir,
                calibrator, rtt_ms, ingest_log, prep.subscriptions,
                harness.OUT / f"trace-{prep.workload.name}.json",
            )  # fmt: skip
    finally:
        local.close()
    attempted, errors = session.attempted_and_errors()
    # An answer that differs from the oracle's failed, like a non-200.
    failed = errors + wrong
    e2e["error_share"] = (failed / attempted, "share")
    outcome = Outcome(e2e, per_layer, attempted, failed)
    samples = sum(r.result.ok for r in session.rounds)
    show(
        f"{prep.workload.name}: end to end",
        e2e,
        f" ({samples} samples in {len(session.rounds)} rounds, "
        f"{stats.samples_beyond(samples, 95)} beyond p95; host at "
        f"{statistics.median(calibrator.readings):.2f} of reference speed)",
    )
    if per_layer is not None:
        show(f"{prep.workload.name}: per layer", per_layer)
    captured = len(session.warmup.captured)
    print(
        f"-- {prep.workload.name}: oracle {captured - wrong}/{captured} bodies "
        f"byte-identical, {failed} of {attempted} failed"
    )
    return outcome


def show(title: str, metrics: Dict[str, Metric], samples: str = "") -> None:
    print(f"-- {title}{samples}")
    for name, (value, unit) in metrics.items():
        print(f"   {name:48s} {value:14.6g} {unit}")


# -- one workload (the BENCHMARK.json command) ----------------------------------------


def run_single(args, calibrator: Calibrator) -> int:
    fixture = make_fixture(args.seed, 1 if args.smoke else 30, harness.OUT)
    prep = prepare(args.workload, fixture, args.seed, args.smoke)
    try:
        session, setups = set_up(prep, fixture, calibrator, 1 if args.trace else SETUPS)
        rtt = health_rtt_ms(session, calibrator) if args.trace else []
        if args.trace and prep.workload.live:
            session.visit(args.seconds * 0.75, calibrator)
            session.visit(args.seconds * 0.25, calibrator, quiet=True)
        else:
            session.visit(args.seconds, calibrator)
        outcome = finish(
            prep, session, setups, fixture, calibrator, bool(args.trace), rtt
        )
    finally:
        harness.remove_work_dirs()
    # error_share is always 0 on a correct run, so it cannot carry a
    # relative bound: it travels as failed / attempted instead.
    reported = outcome.per_layer if args.trace else {
        k: v for k, v in outcome.end_to_end.items() if k != "error_share"
    }
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            }
        )
    )
    return 0 if outcome.failed == 0 else 1


# -- all four, interleaved ----------------------------------------------------------------


def run_full(args, calibrator: Calibrator) -> int:
    fixture = make_fixture(args.seed, 1 if args.smoke else 30, harness.OUT)
    visits, visit_s = (1, 1.0) if args.smoke else (VISITS, VISIT_S)
    names = list(WORKLOADS)
    preps = {n: prepare(n, fixture, args.seed, args.smoke) for n in names}
    sessions: Dict[str, Session] = {}
    setups: Dict[str, List[float]] = {}
    report: Dict[str, Any] = {}
    failed_total = 0
    try:
        for n in names:
            sessions[n], setups[n] = set_up(
                preps[n], fixture, calibrator, 1 if args.smoke else SETUPS
            )
        for v in range(visits):
            # Rotating order: every workload samples every phase of the
            # host's drift, and none always runs right after the same one.
            for n in names[v % len(names) :] + names[: v % len(names)]:
                sessions[n].visit(visit_s, calibrator)
        for n in names:
            if preps[n].workload.live and args.trace:
                sessions[n].visit(visit_s, calibrator, quiet=True)
        rtts = {n: health_rtt_ms(sessions[n], calibrator) if args.trace else [] for n in names}
        for n in names:
            outcome = finish(
                preps[n], sessions[n], setups[n], fixture, calibrator,
                bool(args.trace), rtts[n],
            )  # fmt: skip
            failed_total += outcome.failed
            report[n] = {
                "end_to_end": {k: v for k, (v, _) in outcome.end_to_end.items()},
                "per_layer": {k: v for k, (v, _) in (outcome.per_layer or {}).items()},
                "samples": sum(r.result.ok for r in sessions[n].rounds),
                "attempted": outcome.attempted,
                "failed": outcome.failed,
            }
    finally:
        for s in sessions.values():
            s.server.kill()
        harness.remove_work_dirs()
    if args.json_out:
        doc = {"seed": args.seed, "environment": environment(), "workloads": report}
        Path(args.json_out).write_text(json.dumps(doc, indent=1))
    return 0 if failed_total == 0 else 1


def environment() -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=harness.ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- same code, two sets ----------------------------------------------------------------------


def run_selfcheck(args) -> int:
    """Sets A and B are the same code; their medians must agree within the
    bounds ``BENCHMARK.json`` fixes, or the benchmark is too noisy to
    carry those bounds."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds["error_share"] = 0.0
    harness.OUT.mkdir(parents=True, exist_ok=True)
    sets: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
    for k in range(2 * SELFCHECK_RUNS):
        label = "AB"[k % 2]
        out = harness.OUT / f"selfcheck-{label}{k // 2}.json"
        argv = [
            sys.executable, "-m", "benchmarks.e2e", "--seed", str(args.seed),
            "--trace", "0", "--json-out", str(out),
        ] + (["--smoke"] if args.smoke else [])  # fmt: skip
        print(f"selfcheck: run {k + 1}/{2 * SELFCHECK_RUNS} (set {label})", flush=True)
        done = subprocess.run(argv, cwd=harness.ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:])
            return 1
        sets[label].append(json.loads(out.read_text())["workloads"])
    ok = True
    print(f"{'workload':14s} {'metric':24s} {'set A':>12s} {'set B':>12s} {'gap':>7s} {'bound':>6s}")
    for n in WORKLOADS:
        for metric, bound in bounds.items():
            a, b = (
                statistics.median(run[n]["end_to_end"][metric] for run in sets[s])
                for s in "AB"
            )
            good = stats.within_bound(metric, a, b, bounds)
            ok &= good
            print(
                f"{n:14s} {metric:24s} {a:12.5g} {b:12.5g} "
                f"{stats.disagreement(a, b):7.3f} {bound:6.2f} {'' if good else 'OUT OF BOUND'}"
            )
    print("selfcheck:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workload", choices=list(WORKLOADS), help="one workload only")
    p.add_argument("--seconds", type=float, default=15.0, help="measured seconds (with --workload)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="1: per-layer traced run (default 1 for the full harness, 0 with --workload)")  # fmt: skip
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--json-out", help="full harness: also write the numbers here")
    args = p.parse_args(argv)
    if args.trace is None:
        args.trace = 0 if args.workload else 1
    pin_to_one_cpu()
    if args.selfcheck:
        return run_selfcheck(args)
    with Calibrator() as calibrator:
        return (run_single if args.workload else run_full)(args, calibrator)
