"""Deterministic concurrency harness for the serving layer.

The server under test is anything with the paper protocol's in-process
surface — ``ingest``, ``handle_many`` and ``handle_many_with_epoch`` —
i.e. an :class:`~repro.server.async_server.EngineQueryService`.  Two
drivers, both built on real threads (``docs/testing.md``):

* :func:`run_phase_schedule` — a *barrier-synchronized* schedule: a
  seeded sequence of write and read steps where writes run exclusively
  and reads run truly concurrently (every reader thread passes a barrier
  before touching the server).  Because writes never overlap reads, every
  answer's epoch is exact by construction, making failures replayable
  from the seed alone.
* :func:`run_free_running` — the writer ingests flat out while reader
  threads drain the query workload with no synchronisation beyond the
  server's own snapshot isolation.  Epochs are whatever
  ``handle_many_with_epoch`` pinned; the oracle below replays them.

The oracle, :func:`serial_replay_answers`, rebuilds a fresh server,
replays the same ingest batches one epoch at a time, and answers each
recorded chunk at the epoch the concurrent run reported — every response
must be byte-identical (:func:`response_fingerprints`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.network.messages import (
    ModelCoverResponse,
    ModelRequest,
    QueryRequest,
    ValueResponse,
)

Step = str  # "write" | "read"


def seeded_schedule(
    seed: int, n_writes: int, n_reads: int, lead_writes: int = 1
) -> List[Step]:
    """A reproducible interleaving of ``n_writes`` write steps and
    ``n_reads`` read steps.  ``lead_writes`` write steps come first so
    the first read never hits an empty server."""
    rng = np.random.default_rng(seed)
    lead = min(lead_writes, n_writes)
    steps = ["write"] * (n_writes - lead) + ["read"] * n_reads
    rng.shuffle(steps)
    return ["write"] * lead + steps


def response_fingerprints(responses: Sequence) -> List[tuple]:
    """Byte-comparable identity per response (NaN-stable)."""
    out = []
    for r in responses:
        if isinstance(r, ValueResponse):
            # Compare the raw float bit patterns: NaN == NaN, and any
            # last-ulp divergence between runs is a real failure.
            out.append(("value", r.t, np.float64(r.value).tobytes()))
        elif isinstance(r, ModelCoverResponse):
            out.append(("cover", r.blob))
        else:  # pragma: no cover - harness misuse
            raise TypeError(f"unexpected response {type(r).__name__}")
    return out


@dataclass
class AnsweredChunk:
    """One concurrently-answered request chunk and the epoch it pinned."""

    epoch: int
    requests: List
    fingerprints: List[tuple]


def split_round_robin(requests: Sequence, n: int) -> List[List]:
    """Deterministic round-robin split of a workload into ``n`` chunks."""
    chunks: List[List] = [[] for _ in range(n)]
    for i, request in enumerate(requests):
        chunks[i % n].append(request)
    return [c for c in chunks if c]


def run_phase_schedule(
    server,
    batches: Sequence[TupleBatch],
    read_workloads: Sequence[Sequence],
    schedule: Sequence[Step],
    n_readers: int = 4,
) -> List[AnsweredChunk]:
    """Drive ``server`` through a barrier-synchronized schedule.

    ``schedule`` must contain exactly ``len(batches)`` write steps and
    ``len(read_workloads)`` read steps.  On a read step the workload is
    split across ``n_readers`` threads which all pass a start barrier
    before calling ``handle_many_with_epoch`` — genuinely concurrent
    reads at a write-quiescent (hence exact) epoch.
    """
    assert sum(s == "write" for s in schedule) == len(batches)
    assert sum(s == "read" for s in schedule) == len(read_workloads)
    answered: List[AnsweredChunk] = []
    answered_lock = threading.Lock()
    next_batch = iter(batches)
    next_read = iter(read_workloads)

    def read_task(chunk, barrier):
        barrier.wait()
        responses, epoch = server.handle_many_with_epoch(chunk)
        with answered_lock:
            answered.append(
                AnsweredChunk(
                    epoch=int(epoch),
                    requests=list(chunk),
                    fingerprints=response_fingerprints(responses),
                )
            )

    for step in schedule:
        if step == "write":
            server.ingest(next(next_batch))
            continue
        chunks = split_round_robin(next(next_read), n_readers)
        barrier = threading.Barrier(len(chunks))
        threads = [
            threading.Thread(target=read_task, args=(chunk, barrier))
            for chunk in chunks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return answered


def run_free_running(
    server,
    batches: Sequence[TupleBatch],
    read_workloads: Sequence[Sequence],
    n_readers: int = 4,
) -> List[AnsweredChunk]:
    """Writer ingests flat out while readers drain the workload.

    No synchronisation between writer and readers — the point is to
    catch torn snapshots.  Each reader chunk records the epoch its
    answers were pinned at; readers keep draining until the workload is
    exhausted (the writer usually finishes first, so late chunks see the
    final epoch).
    """
    answered: List[AnsweredChunk] = []
    answered_lock = threading.Lock()
    work = list(read_workloads)
    work_lock = threading.Lock()
    failures: List[BaseException] = []

    def writer():
        try:
            for batch in batches:
                server.ingest(batch)
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    def reader():
        try:
            while True:
                with work_lock:
                    if not work:
                        return
                    chunk = work.pop(0)
                responses, epoch = server.handle_many_with_epoch(chunk)
                with answered_lock:
                    answered.append(
                        AnsweredChunk(
                            epoch=int(epoch),
                            requests=list(chunk),
                            fingerprints=response_fingerprints(responses),
                        )
                    )
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader) for _ in range(n_readers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    return answered


def serial_replay_answers(
    make_server: Callable[[], object],
    batches: Sequence[TupleBatch],
    answered: Sequence[AnsweredChunk],
) -> List[Tuple[AnsweredChunk, List[tuple]]]:
    """Replay the ingest serially and re-answer every chunk at its epoch.

    Returns ``(chunk, serial fingerprints)`` pairs; a snapshot-isolation
    bug shows up as a fingerprint mismatch.  Epoch ``e`` is the server
    state after the first ``e`` ingested batches (every batch non-empty),
    exactly :attr:`repro.storage.shards.ShardRouter.epoch`'s numbering.
    """
    server = make_server()
    by_epoch: dict = {}
    for chunk in answered:
        by_epoch.setdefault(chunk.epoch, []).append(chunk)
    out: List[Tuple[AnsweredChunk, List[tuple]]] = []
    for epoch in sorted(by_epoch):
        if epoch > len(batches):
            raise AssertionError(f"recorded epoch {epoch} past final ingest")
    epoch = 0
    for chunk in by_epoch.get(0, ()):  # answered before any ingest
        out.append((chunk, response_fingerprints(server.handle_many(chunk.requests))))
    for batch in batches:
        server.ingest(batch)
        epoch += 1
        for chunk in by_epoch.get(epoch, ()):
            out.append(
                (chunk, response_fingerprints(server.handle_many(chunk.requests)))
            )
    return out


def make_query_workload(
    rng: np.random.Generator,
    stream: TupleBatch,
    n: int,
    model_request_every: int = 0,
) -> List:
    """``n`` requests near the stream's data (seeded, reproducible).

    Positions jitter around random tuples, times land near random tuple
    timestamps; every ``model_request_every``-th request is a
    :class:`ModelRequest` so the cover path is exercised too."""
    idx = rng.integers(0, len(stream), size=n)
    jx = rng.normal(0.0, 150.0, size=n)
    jy = rng.normal(0.0, 150.0, size=n)
    jt = rng.uniform(-30.0, 30.0, size=n)
    out: List = []
    for k in range(n):
        i = int(idx[k])
        t = float(stream.t[i] + jt[k])
        x = float(stream.x[i] + jx[k])
        y = float(stream.y[i] + jy[k])
        if model_request_every and k % model_request_every == model_request_every - 1:
            out.append(ModelRequest(t=t, x=x, y=y))
        else:
            out.append(QueryRequest(t=t, x=x, y=y))
    return out
