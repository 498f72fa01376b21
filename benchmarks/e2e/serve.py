"""Server launcher: one of these processes per workload under test.

Loads the fixture columns, builds the stack (``backend.py``), ingests the
preloaded share in ``--ingest-batch`` batches, binds port 0 and prints one
ready line (``READY port=<p> pid=<pid> rows=<n>``).  It then obeys
one-word commands on stdin, acknowledging each on stdout:

* ``resume [stretch]`` / ``pause`` — start / stop the ``--live`` writer,
  which ingests the rest of the fixture on a fixed schedule (open loop)
  and calls ``registry.notify_ingest()`` after each batch.  ``stretch``
  multiplies the schedule's period (see ``ScheduledWriter``).  ``pause``
  returns only when no batch is in flight and a maintenance pass has run
  to completion, so store and registry are quiescent afterwards;
* ``quit`` — or end of input, so a launcher never outlives its harness.

Run as ``python -m benchmarks.e2e.serve`` with the repo root and ``src``
on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

from repro.server.async_server import AsyncQueryServer

from benchmarks.e2e.backend import build_router, build_stack, ingest_batches
from benchmarks.e2e.workloads import (
    LIVE_BATCH_ROWS,
    LIVE_ROWS_PER_S,
    covered_bbox,
    load_columns,
)


class ScheduledWriter:
    """Ingests ``tuples[start:]`` one batch per period while running.

    Batch ``k`` is due ``k`` periods after the writer was (re)started,
    independent of how long earlier batches took; ``log`` records
    ``(due, started, done, rows_total)`` per batch on ``time.monotonic``.

    The schedule runs on the *reference-speed* clock: ``resume(stretch)``
    stretches the period by how much slower than reference the harness
    just measured the host to be.  On a fixed wall-clock schedule a host
    at half speed would spend twice the share of its time ingesting, and
    the readers' numbers would fall faster than the host slowed: not a
    property of the system, and not something scaling can undo afterwards.
    """

    def __init__(self, router, registry, tuples, start: int) -> None:
        self._router = router
        self._registry = registry
        self._tuples = tuples
        self._row = start
        self._period = LIVE_BATCH_ROWS / LIVE_ROWS_PER_S
        self._origin = 0.0  # when batch 0 of the current stretch was due
        self._k = 0  # batches done in the current stretch
        self._running = threading.Event()
        self._quit = False
        self._batch_lock = threading.Lock()
        self.log: List[List[float]] = []
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @property
    def rows(self) -> int:
        return self._row

    def resume(self, stretch: float = 1.0) -> None:
        self._period = stretch * LIVE_BATCH_ROWS / LIVE_ROWS_PER_S
        self._origin = time.monotonic()
        self._k = 0
        self._running.set()

    def pause(self) -> None:
        self._running.clear()
        with self._batch_lock:  # wait out a batch in flight
            pass
        # Serialises behind a pass the last batch triggered; what it
        # finds is queued on the subscriptions and pushed as usual.
        self._registry.maintain()

    def stop(self) -> None:
        self._quit = True
        self._running.set()
        self._thread.join(timeout=10.0)

    def _run(self) -> None:
        n = len(self._tuples)
        while self._row < n:
            self._running.wait()
            if self._quit:
                return
            due = self._origin + self._k * self._period
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            with self._batch_lock:
                if not self._running.is_set() or self._quit:
                    continue
                started = time.monotonic()
                stop = min(self._row + LIVE_BATCH_ROWS, n)
                self._router.ingest(self._tuples.slice(self._row, stop))
                self._row = stop
                self._registry.notify_ingest()
                self.log.append([due, started, time.monotonic(), stop])
                self._k += 1


async def _serve(stack, writer: Optional[ScheduledWriter], rows: int) -> None:
    loop = asyncio.get_running_loop()
    done = asyncio.Event()
    server = AsyncQueryServer(stack.service, port=0)
    await server.start()
    print(f"READY port={server.port} pid={os.getpid()} rows={rows}", flush=True)

    def commands() -> None:
        for line in sys.stdin:
            word, *rest = line.split() or [""]
            if word == "quit":
                break
            if writer is not None and word == "resume":
                writer.resume(float(rest[0]) if rest else 1.0)
            elif writer is not None and word == "pause":
                writer.pause()
            else:
                continue
            print(f"{word.upper()} rows={writer.rows}", flush=True)
        loop.call_soon_threadsafe(done.set)

    threading.Thread(target=commands, daemon=True).start()
    await done.wait()
    await server.close()


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--fixture", type=Path, required=True)
    p.add_argument("--backend", choices=("memory", "tiered"), required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--data-dir", type=Path)
    p.add_argument("--memory-windows", type=int)
    p.add_argument("--preload-rows", type=int, help="default: the whole fixture")
    p.add_argument("--ingest-batch", type=int, default=500)
    p.add_argument("--live", action="store_true", help="scheduled writer + /ws subscriptions")
    p.add_argument("--ingest-log", type=Path, help="where the writer's batch log goes on quit")
    args = p.parse_args(argv)

    tuples = load_columns(args.fixture)
    head = len(tuples) if args.preload_rows is None else args.preload_rows
    router = build_router(
        args.backend, covered_bbox(tuples), args.h, args.data_dir, args.memory_windows
    )
    ingest_batches(router, tuples, 0, head, args.ingest_batch)
    stack = build_stack(router, args.method, subscriptions=args.live)
    writer = (
        ScheduledWriter(router, stack.registry, tuples, head) if args.live else None
    )
    try:
        asyncio.run(_serve(stack, writer, router.global_count()))
    finally:
        if writer is not None:
            writer.stop()
            if args.ingest_log is not None:
                args.ingest_log.write_text(json.dumps(writer.log))
        stack.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
