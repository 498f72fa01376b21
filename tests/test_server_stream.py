"""Tests for repro.server.stream."""

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.network.messages import ModelRequest, QueryRequest
from repro.server.stream import StreamReplayer

from one_shard import protocol_service


def fits(service) -> int:
    """Covers the engine fitted (its cache misses)."""
    return service.engine.cache_stats.misses


class TestSlices:
    def test_partition_is_complete(self, small_batch):
        replayer = StreamReplayer(protocol_service(), batch_interval_s=1800.0)
        total = sum(len(piece) for _, piece in replayer.slices(small_batch))
        assert total == len(small_batch)

    def test_slices_time_ordered(self, small_batch):
        replayer = StreamReplayer(protocol_service(), batch_interval_s=1800.0)
        times = [t for t, _ in replayer.slices(small_batch)]
        assert times == sorted(times)

    def test_empty_intervals_skipped(self):
        # Two bursts separated by a long gap.
        t = np.array([0.0, 10.0, 10_000.0])
        batch = TupleBatch(t, np.zeros(3), np.zeros(3), np.full(3, 400.0))
        replayer = StreamReplayer(protocol_service(), batch_interval_s=100.0)
        pieces = list(replayer.slices(batch))
        assert len(pieces) == 2  # no empty deliveries in between

    def test_unsorted_rejected(self):
        t = np.array([10.0, 0.0])
        batch = TupleBatch(t, np.zeros(2), np.zeros(2), np.zeros(2))
        replayer = StreamReplayer(protocol_service())
        with pytest.raises(ValueError, match="time-sorted"):
            list(replayer.slices(batch))

    def test_empty_stream(self):
        replayer = StreamReplayer(protocol_service())
        assert list(replayer.slices(TupleBatch.empty())) == []

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            StreamReplayer(protocol_service(), batch_interval_s=0)


class TestRun:
    def test_full_replay_ingests_everything(self, small_batch):
        server = protocol_service(h=240)
        stats = StreamReplayer(server, batch_interval_s=3600.0).run(small_batch)
        assert stats.tuples == len(small_batch)
        assert server.engine.router.global_count() == len(small_batch)
        assert stats.batches >= 10

    def test_queries_force_lazy_cover_builds(self, small_batch):
        server = protocol_service(h=240)
        stats = StreamReplayer(server, batch_interval_s=1800.0).run(
            small_batch, query_every_s=4 * 3600.0
        )
        assert server.engine.metrics["served"].values >= 2
        assert stats.covers_built >= 2  # distinct windows were materialised

    def test_no_queries_no_covers(self, small_batch):
        server = protocol_service(h=240)
        stats = StreamReplayer(server, batch_interval_s=3600.0).run(small_batch)
        assert stats.covers_built == 0  # lazy: nothing asked, nothing built

    def test_sealed_window_stats(self, small_batch):
        server = protocol_service(h=240)
        stats = StreamReplayer(server, batch_interval_s=3600.0).run(small_batch)
        assert stats.windows_sealed == len(small_batch) // 240
        assert stats.covers_built == 0  # no queries -> no fits

    def test_stats_report_the_services_store(self, small_batch):
        server = protocol_service(h=240)
        stats = StreamReplayer(server, batch_interval_s=3600.0).run(
            small_batch, query_every_s=4 * 3600.0
        )
        router = server.engine.router
        assert stats.final_epoch == router.epoch == stats.batches
        assert stats.covers_built == fits(server)
        assert server.engine.metrics["served"].values == stats.covers_built

    def test_progress_callback(self, small_batch):
        server = protocol_service(h=240)
        seen = []
        StreamReplayer(server, batch_interval_s=3600.0).run(
            small_batch, on_progress=lambda t, n: seen.append((t, n))
        )
        assert seen
        assert seen[-1][1] == len(small_batch)


class TestRepeatedIngestEquivalence:
    """Many small ingest batches must behave exactly like one big ingest:
    identical served covers (byte for byte), identical query answers, and
    no refitting of windows that were already sealed."""

    def _query_times(self, batch, n=6):
        span = len(batch) - 1
        return [float(batch.t[i * span // (n - 1)]) for i in range(n)]

    def test_covers_and_answers_byte_identical(self, small_batch):
        one_shot = protocol_service(h=240)
        one_shot.ingest(small_batch)
        replayed = protocol_service(h=240)
        StreamReplayer(replayed, batch_interval_s=600.0).run(small_batch)
        assert replayed.engine.router.global_count() == len(small_batch)

        requests = [
            QueryRequest(t=t, x=2500.0, y=1800.0)
            for t in self._query_times(small_batch)
        ]
        answers_a = [one_shot.handle(r) for r in requests]
        answers_b = [replayed.handle(r) for r in requests]
        for a, b in zip(answers_a, answers_b):
            assert a.t == b.t
            assert a.value == pytest.approx(b.value, abs=0.0)

        models = [ModelRequest(t=r.t, x=r.x, y=r.y) for r in requests]
        blobs_a = [one_shot.handle(r).blob for r in models]
        blobs_b = [replayed.handle(r).blob for r in models]
        assert blobs_a == blobs_b
        assert fits(one_shot) == fits(replayed) > 0

    def test_sealed_windows_never_refit(self, small_batch):
        server = protocol_service(h=240)
        head = small_batch.slice(0, len(small_batch) - 10)
        StreamReplayer(server, batch_interval_s=600.0).run(head)
        times = self._query_times(head)
        for t in times:
            server.handle(QueryRequest(t=t, x=2500.0, y=1800.0))
        distinct = set(server.engine.router.windows_for_times(times).tolist())
        assert fits(server) == len(distinct)
        # Asking again (and ingesting more data past the sealed windows)
        # must not trigger a single further fit for them.
        before = fits(server)
        server.ingest(small_batch.slice(len(head), len(small_batch)))
        for t in times[:-1]:  # all sealed windows
            server.handle(QueryRequest(t=t, x=2500.0, y=1800.0))
        assert fits(server) == before
