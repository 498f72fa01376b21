"""Concurrent serving layer: snapshot isolation under multi-threaded load.

The paper's protocol served by the one front end,
:class:`~repro.server.async_server.EngineQueryService`, over a one-shard
engine.  Every test compares real concurrent execution against a
*serial replay oracle* (``tests/concurrency.py``): a fresh service fed
the same ingest
batches one epoch at a time must reproduce every concurrently-computed
answer byte-for-byte at the epoch the answer was pinned at.  Schedules
and workloads are seeded, so a failure replays from its parametrised
seed alone.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.client.fleet import FleetSimulator, commuter_fleet
from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.server.async_server import EngineQueryService

from concurrency import (
    make_query_workload,
    response_fingerprints,
    run_free_running,
    run_phase_schedule,
    seeded_schedule,
    serial_replay_answers,
)
from one_shard import protocol_service

H = 48
N_READERS = 4
BBOX = BoundingBox(0.0, 0.0, 6000.0, 4000.0)


def make_stream(rng: np.random.Generator, n: int) -> TupleBatch:
    """A time-sorted synthetic sensing stream over the test bbox."""
    t = np.cumsum(rng.uniform(0.5, 3.0, n))
    return TupleBatch(
        t,
        rng.uniform(0.0, 6000.0, n),
        rng.uniform(0.0, 4000.0, n),
        rng.uniform(350.0, 600.0, n),
    )


def split_batches(stream: TupleBatch, n_batches: int):
    """Contiguous near-equal ingest batches covering the stream."""
    bounds = np.linspace(0, len(stream), n_batches + 1).astype(int)
    return [
        stream.slice(int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]


def assert_matches_serial_replay(make_server, batches, answered):
    replayed = serial_replay_answers(make_server, batches, answered)
    assert replayed, "no chunks were answered"
    for chunk, serial_prints in replayed:
        assert chunk.fingerprints == serial_prints, (
            f"concurrent answers diverged from serial replay at epoch "
            f"{chunk.epoch}"
        )


class TestPhaseScheduledServer:
    """Barrier-synchronized schedules: exact epochs by construction."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_plain_server_matches_serial_replay(self, seed):
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, 600)
        batches = split_batches(stream, 6)
        workloads = [
            make_query_workload(rng, stream, 40, model_request_every=7)
            for _ in range(5)
        ]
        schedule = seeded_schedule(seed, len(batches), len(workloads))
        server = protocol_service(h=H)
        answered = run_phase_schedule(
            server, batches, workloads, schedule, n_readers=N_READERS
        )
        assert len(answered) >= len(workloads)  # one chunk per reader slice
        assert_matches_serial_replay(lambda: protocol_service(h=H), batches, answered)


class TestFreeRunningServer:
    """Unsynchronised writer + readers: the raw snapshot-isolation test."""

    @pytest.mark.parametrize("seed", [7, 23, 41])
    def test_every_answer_matches_replay_at_its_recorded_epoch(self, seed):
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, 900)
        preload, live = stream.slice(0, 300), stream.slice(300, len(stream))
        batches = [preload] + split_batches(live, 8)
        workloads = [
            make_query_workload(rng, stream, 24, model_request_every=5)
            for _ in range(10)
        ]
        server = protocol_service(h=H)
        server.ingest(batches[0])  # readers never see an empty store
        answered = run_free_running(
            server, batches[1:], workloads, n_readers=N_READERS
        )
        assert len(answered) == len(workloads)
        epochs = {chunk.epoch for chunk in answered}
        assert min(epochs) >= 1 and max(epochs) <= len(batches)
        assert_matches_serial_replay(lambda: protocol_service(h=H), batches, answered)

    def test_epoch_advances_once_per_ingest(self):
        rng = np.random.default_rng(0)
        stream = make_stream(rng, 200)
        server = protocol_service(h=H)
        router = server.engine.router
        assert router.epoch == 0
        for k, batch in enumerate(split_batches(stream, 4), start=1):
            server.ingest(batch)
            assert router.epoch == k
        server.ingest(TupleBatch.empty())
        assert router.epoch == 4  # empty ingest is not an epoch


class TestWorkerPool:
    def test_large_batch_identical_to_one_request_at_a_time(self):
        """A batch of 1 024 requests, pinned at one epoch, answers
        byte-identically to the same requests handled one by one, and
        starts no thread."""
        rng = np.random.default_rng(13)
        stream = make_stream(rng, 500)
        requests = make_query_workload(rng, stream, 1024, model_request_every=9)
        serial = protocol_service(h=H)
        serial.ingest(stream)
        threads = threading.active_count()
        with protocol_service(h=H).engine as engine:
            batched = EngineQueryService(engine, method="model-cover")
            batched.ingest(stream)
            responses, epoch = batched.handle_many_with_epoch(requests)
            assert threading.active_count() == threads
        assert len(responses) == len(requests)
        assert epoch == 1
        assert response_fingerprints(responses) == response_fingerprints(
            [serial.handle(request) for request in requests]
        )

    def test_parallel_requests_from_many_threads(self):
        """Raw thread hammering of handle(): counters stay exact and the
        answers equal the single-threaded ones."""
        rng = np.random.default_rng(19)
        stream = make_stream(rng, 400)
        requests = make_query_workload(rng, stream, 120)
        server = protocol_service(h=H)
        server.ingest(stream)
        served_before = server.engine.metrics["served"].values
        expected = response_fingerprints([server.handle(r) for r in requests])

        results: dict = {}

        def worker(worker_id, chunk):
            results[worker_id] = [server.handle(r) for r in chunk]

        chunks = [requests[i::4] for i in range(4)]
        threads = [
            threading.Thread(target=worker, args=(i, chunk))
            for i, chunk in enumerate(chunks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        got = {}
        for i, chunk in enumerate(chunks):
            for r, resp in zip(requests[i::4], results[i]):
                got[id(r)] = resp
        concurrent_prints = response_fingerprints([got[id(r)] for r in requests])
        assert concurrent_prints == expected
        assert server.engine.metrics["served"].values == served_before + 2 * len(requests)


class TestConcurrentFleet:
    def test_run_concurrent_matches_sequential_run(self):
        rng = np.random.default_rng(43)
        stream = make_stream(rng, 500)
        members = commuter_fleet(6, BBOX, use_model_cache=False, n_queries=8)

        def report_for(concurrent: bool):
            server = protocol_service(h=H)
            server.ingest(stream)
            sim = FleetSimulator(server)
            if concurrent:
                return sim.run_concurrent(members, t_start=60.0, max_workers=3)
            return sim.run(members, t_start=60.0)

        serial, concurrent = report_for(False), report_for(True)
        assert [m.name for m in concurrent.members] == [m.name for m in serial.members]
        assert [m.answered for m in concurrent.members] == [
            m.answered for m in serial.members
        ]
        assert concurrent.server_values_served == serial.server_values_served
        assert (
            concurrent.total_stats().received_bytes
            == serial.total_stats().received_bytes
        )
