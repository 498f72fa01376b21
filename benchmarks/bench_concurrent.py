"""Concurrent serving throughput under sustained ingest, vs serial interleaving.

Not a paper figure — this measures the reproduction's concurrent serving
layer: one :class:`~repro.server.async_server.EngineQueryService` over a
one-shard engine (its pool sized to the reader count), with a writer delivering ingest batches
over a modeled store-and-forward uplink while four reader threads serve
query chunks to clients behind a modeled cellular round trip (the same deployment shape
:mod:`repro.network.link` models for traffic accounting — here the wire
times are *slept*, because overlapping them is exactly what the
concurrent layer buys).

The baseline is the **serial interleaved discipline** — the pre-PR
single-threaded server loop, where one thread owns the socket and the
store: receive a batch (uplink), ingest it, then serve the queued query
chunks one client at a time (RTT, then evaluate).  "One ingest blocks
every query, and every client blocks every other client."  The
concurrent layer overlaps all of it: the writer sleeps/ingests on its
own thread under the storage write lock while the reader pool serves the
same chunks, so wire time hides behind compute on any machine — and on
a multi-core rig the numpy evaluation parallelises on top.

Acceptance (full mode): aggregate query throughput at least **2x** the
serial baseline, and every concurrently-computed answer **byte-identical**
to a serial replay of the same ingest schedule at the answer's recorded
snapshot epoch.  ``--smoke`` shrinks the workload and skips the timing
bar (a loaded CI box is not a benchmark rig); the byte-identity check is
enforced everywhere.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_concurrent.py
"""

from __future__ import annotations

import sys
import threading
import time
from typing import List, Sequence, Tuple

import numpy as np
import pytest

try:
    from benchmarks.conftest import rng_for
except ModuleNotFoundError:  # standalone: python benchmarks/bench_concurrent.py
    from conftest import rng_for
from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset
from repro.data.tuples import TupleBatch
from repro.network.messages import QueryRequest, ValueResponse
from repro.query.sharded import ShardedQueryEngine
from repro.server.async_server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router

H = 240
N_READERS = 4
N_INGEST_BATCHES = 24
N_CHUNKS = 24
CHUNK_SIZE = 400
UPLINK_S = 0.006   # modeled store-and-forward delivery per ingest batch
CLIENT_RTT_S = 0.020  # modeled cellular round trip per served chunk
ACCEPT_SPEEDUP = 2.0


def day_fixture():
    """The deterministic 1-day Lausanne dataset (~5.9 K tuples)."""
    return generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0, seed=7))


def build_workload(
    rng: np.random.Generator,
    stream: TupleBatch,
    n_batches: int = 0,
    n_chunks: int = 0,
    chunk_size: int = 0,
) -> Tuple[TupleBatch, List[TupleBatch], List[List[QueryRequest]]]:
    """(preload, live ingest batches, query chunks) for one run.

    The first half of the day preloads the store; the second half streams
    in as the sustained-ingest load.  Queries jitter around random tuples
    of the *preloaded* half, so every chunk is answerable at every epoch
    and the serial replay is exact.  Zero arguments fall back to the
    module constants (late-bound so the smoke runner can shrink them).
    """
    n_batches = n_batches or N_INGEST_BATCHES
    n_chunks = n_chunks or N_CHUNKS
    chunk_size = chunk_size or CHUNK_SIZE
    half = len(stream) // 2
    preload, live = stream.slice(0, half), stream.slice(half, len(stream))
    bounds = np.linspace(0, len(live), n_batches + 1).astype(int)
    batches = [
        live.slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    ]
    chunks: List[List[QueryRequest]] = []
    for _ in range(n_chunks):
        idx = rng.integers(0, half, size=chunk_size)
        jx = rng.normal(0.0, 120.0, size=chunk_size)
        jy = rng.normal(0.0, 120.0, size=chunk_size)
        chunks.append(
            [
                QueryRequest(
                    t=float(stream.t[i]), x=float(stream.x[i]) + float(dx),
                    y=float(stream.y[i]) + float(dy),
                )
                for i, dx, dy in zip(idx, jx, jy)
            ]
        )
    return preload, batches, chunks


def one_shard_engine() -> ShardedQueryEngine:
    """The paper's deployment's engine: one shard, the protocol's cover
    cache."""
    return ShardedQueryEngine(
        single_shard_router(H), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY
    )


def fingerprints(responses: Sequence[ValueResponse]) -> List[bytes]:
    """NaN-stable byte identity per answer."""
    return [np.float64(r.value).tobytes() for r in responses]


def serial_interleaved(
    server: EngineQueryService,
    batches: Sequence[TupleBatch],
    chunks: Sequence[List[QueryRequest]],
    uplink_s: float = -1.0,
    rtt_s: float = -1.0,
) -> Tuple[float, List[List[bytes]]]:
    """The pre-PR discipline: one thread owns uplink, store and clients.

    Batches and chunks interleave round-robin (one batch, then the next
    ``len(chunks)/len(batches)`` chunks), every wire delay paid inline.
    Returns (elapsed seconds, per-chunk answer fingerprints).
    """
    uplink_s = UPLINK_S if uplink_s < 0 else uplink_s
    rtt_s = CLIENT_RTT_S if rtt_s < 0 else rtt_s
    per_step = max(1, len(chunks) // max(len(batches), 1))
    answers: List[List[bytes]] = []
    next_chunk = 0
    start = time.perf_counter()
    for batch in batches:
        time.sleep(uplink_s)  # the uplink transfer blocks the loop
        server.ingest(batch)
        for _ in range(per_step):
            if next_chunk >= len(chunks):
                break
            time.sleep(rtt_s)  # ...and so does each client round trip
            answers.append(fingerprints(server.handle_many(chunks[next_chunk])))
            next_chunk += 1
    while next_chunk < len(chunks):
        time.sleep(rtt_s)
        answers.append(fingerprints(server.handle_many(chunks[next_chunk])))
        next_chunk += 1
    return time.perf_counter() - start, answers


def concurrent_run(
    server: EngineQueryService,
    batches: Sequence[TupleBatch],
    chunks: Sequence[List[QueryRequest]],
    n_readers: int = N_READERS,
    uplink_s: float = -1.0,
    rtt_s: float = -1.0,
) -> Tuple[float, List[Tuple[int, List[int], List[bytes]]]]:
    """Writer + ``n_readers`` client threads over the same workload.

    Each client thread serves its chunk through
    ``handle_many_with_epoch``, one pinned epoch per chunk.  Returns
    (elapsed, records) with one ``(chunk index, per-request epochs,
    fingerprints)`` record per chunk; the epochs feed the byte-identity
    replay.
    """
    uplink_s = UPLINK_S if uplink_s < 0 else uplink_s
    rtt_s = CLIENT_RTT_S if rtt_s < 0 else rtt_s
    records: List[Tuple[int, List[int], List[bytes]]] = []
    records_lock = threading.Lock()
    pending = list(enumerate(chunks))
    pending_lock = threading.Lock()
    failures: List[BaseException] = []

    def writer():
        try:
            for batch in batches:
                time.sleep(uplink_s)  # uplink occupies only this thread
                server.ingest(batch)
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    def reader():
        try:
            while True:
                with pending_lock:
                    if not pending:
                        return
                    k, chunk = pending.pop(0)
                time.sleep(rtt_s)  # each client's round trip, overlapped
                responses, epoch = server.handle_many_with_epoch(chunk)
                with records_lock:
                    records.append(
                        (k, [int(epoch)] * len(chunk), fingerprints(responses))
                    )
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader) for _ in range(n_readers)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if failures:
        raise failures[0]
    return elapsed, sorted(records)


def replay_identical(
    preload: TupleBatch,
    batches: Sequence[TupleBatch],
    chunks: Sequence[List[QueryRequest]],
    records: Sequence[Tuple[int, List[int], List[bytes]]],
) -> bool:
    """Serial replay oracle: re-answer every request at its recorded epoch.

    Epoch ``e`` is the fresh server's state after the preload plus the
    first ``e - 1`` live batches (the preload is ingest #1); requests
    are grouped by their recorded epoch and each group replayed there."""
    server = EngineQueryService(one_shard_engine(), method="model-cover")
    server.ingest(preload)
    router = server.engine.router
    by_epoch: dict = {}
    for k, epochs, prints in records:
        for i, (epoch, print_) in enumerate(zip(epochs, prints)):
            by_epoch.setdefault(epoch, []).append((k, i, print_))
    ok = True
    for epoch in sorted(by_epoch):
        while router.epoch < epoch:
            server.ingest(batches[router.epoch - 1])
        group = by_epoch[epoch]
        want = fingerprints(
            server.handle_many([chunks[k][i] for k, i, _ in group])
        )
        ok = ok and want == [print_ for _, _, print_ in group]
    return ok


# -- pytest-benchmark entry points -----------------------------------------


@pytest.fixture(scope="module")
def day_dataset():
    return day_fixture()


@pytest.mark.parametrize("mode", ("serial", "concurrent"))
def bench_concurrent_serving(benchmark, day_dataset, mode):
    # One fixed workload label for BOTH modes: the serial/concurrent
    # comparison must time identical queries (a node-id-keyed bench_rng
    # would seed each parametrisation differently).
    preload, batches, chunks = build_workload(
        rng_for("bench_concurrent.workload"), day_dataset.tuples
    )
    benchmark.group = f"serving {len(chunks)}x{len(chunks[0])} queries under ingest"
    benchmark.extra_info["mode"] = mode

    def run_serial():
        server = EngineQueryService(one_shard_engine(), method="model-cover")
        server.ingest(preload)
        return serial_interleaved(server, batches, chunks)

    def run_concurrent():
        with one_shard_engine() as engine:
            server = EngineQueryService(engine, method="model-cover")
            server.ingest(preload)
            return concurrent_run(server, batches, chunks)

    benchmark.pedantic(
        run_serial if mode == "serial" else run_concurrent, rounds=1, iterations=1
    )


# -- standalone report ------------------------------------------------------


def main(smoke: bool = False) -> int:
    rng = rng_for("bench_concurrent.workload")
    dataset = day_fixture()
    if smoke:
        n_batches, n_chunks, chunk_size = 6, 6, 60
        uplink_s, rtt_s = 0.001, 0.002
    else:
        n_batches, n_chunks, chunk_size = N_INGEST_BATCHES, N_CHUNKS, CHUNK_SIZE
        uplink_s, rtt_s = UPLINK_S, CLIENT_RTT_S
    preload, batches, chunks = build_workload(
        rng, dataset.tuples, n_batches, n_chunks, chunk_size
    )
    n_queries = sum(len(c) for c in chunks)
    print(
        f"1-day Lausanne fixture: {len(dataset.tuples)} tuples"
        f"{' (smoke)' if smoke else ''}; preload {len(preload)}, "
        f"{len(batches)} ingest batches, {n_queries} queries in "
        f"{len(chunks)} chunks; uplink {uplink_s * 1e3:.0f} ms, "
        f"client RTT {rtt_s * 1e3:.0f} ms"
    )

    serial_server = EngineQueryService(one_shard_engine(), method="model-cover")
    serial_server.ingest(preload)
    serial_s, serial_answers = serial_interleaved(
        serial_server, batches, chunks, uplink_s, rtt_s
    )

    with one_shard_engine() as engine:
        server = EngineQueryService(engine, method="model-cover")
        server.ingest(preload)
        concurrent_s, records = concurrent_run(
            server, batches, chunks, N_READERS, uplink_s, rtt_s
        )

    identical = replay_identical(preload, batches, chunks, records)
    speedup = serial_s / concurrent_s
    print(
        f"\n  {'discipline':<22} {'time':>9} {'queries/s':>11}\n"
        f"  {'serial interleaved':<22} {serial_s * 1e3:>7.0f}ms"
        f" {n_queries / serial_s:>11,.0f}\n"
        f"  {f'{N_READERS} readers + writer':<22} {concurrent_s * 1e3:>7.0f}ms"
        f" {n_queries / concurrent_s:>11,.0f}"
    )
    print(
        f"\nbyte-identity of every concurrent answer vs serial replay at "
        f"its snapshot epoch: {'OK' if identical else 'BROKEN'}"
    )
    if smoke:
        print(f"\nspeedup {speedup:.2f}x (smoke mode: bar not enforced)")
        return 0 if identical else 1
    ok = identical and speedup >= ACCEPT_SPEEDUP
    print(
        f"\nacceptance (byte-identical answers and concurrent throughput >= "
        f"{ACCEPT_SPEEDUP:.0f}x serial interleaved): "
        f"{'PASS' if ok else 'FAIL'} ({speedup:.2f}x)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(smoke="--smoke" in sys.argv[1:]))
