"""Stream replay: drive the server the way the deployment does.

The OpenSense pipeline dumps raw tuples into the database as buses report
them; covers are built lazily per window (the paper's "lazy update
policies").  :class:`StreamReplayer` replays a recorded dataset in time
order, delivering tuples to the server in ingest batches and advancing a
virtual clock, so tests and examples can exercise exactly the
ingest/lazy-refit path a live deployment follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.data.tuples import TupleBatch
from repro.network.messages import QueryRequest
from repro.server.server import ConcurrentEnviroMeterServer, EnviroMeterServer

ProgressCallback = Callable[[float, int], None]
"""Called after each delivered batch with (virtual time, total ingested)."""


@dataclass
class ReplayStats:
    """What a replay run did."""

    batches: int = 0
    tuples: int = 0
    covers_built: int = 0
    covers_fitted: int = 0
    windows_sealed: int = 0
    final_time: float = 0.0
    final_epoch: int = 0


class StreamReplayer:
    """Replays a tuple batch into a server in ``batch_interval_s`` slices.

    Accepts any server exposing the duck-typed serving interface
    (``ingest``/``handle`` plus the replay-stats properties) — the plain
    and concurrent front ends both qualify."""

    def __init__(
        self,
        server: Union[EnviroMeterServer, ConcurrentEnviroMeterServer],
        batch_interval_s: float = 600.0,
    ) -> None:
        if batch_interval_s <= 0:
            raise ValueError("batch interval must be positive")
        self.server = server
        self.batch_interval_s = batch_interval_s

    def slices(self, batch: TupleBatch) -> Iterator[Tuple[float, TupleBatch]]:
        """Yield ``(delivery_time, slice)`` per replay interval.

        Slices partition the stream; empty intervals (service gaps) are
        skipped, matching a store-and-forward uplink that only talks when
        it has data.
        """
        if not len(batch):
            return
        if not batch.is_time_sorted():
            raise ValueError("replay requires a time-sorted stream")
        t0 = float(batch.t[0])
        t_end = float(batch.t[-1])
        lo = t0
        while lo <= t_end:
            hi = lo + self.batch_interval_s
            start = int(np.searchsorted(batch.t, lo, side="left"))
            stop = int(np.searchsorted(batch.t, hi, side="left"))
            if stop > start:
                yield hi, batch.slice(start, stop)
            lo = hi

    def run(
        self,
        batch: TupleBatch,
        query_every_s: Optional[float] = None,
        query_position: Tuple[float, float] = (2500.0, 1800.0),
        on_progress: Optional[ProgressCallback] = None,
    ) -> ReplayStats:
        """Replay the stream; optionally issue a point query after every
        ``query_every_s`` of virtual time (forcing lazy cover builds).

        Returns replay statistics, including how many distinct covers the
        server materialised along the way.
        """
        stats = ReplayStats()
        next_query = float(batch.t[0]) + (query_every_s or 0.0) if len(batch) else 0.0
        for now, piece in self.slices(batch):
            self.server.ingest(piece)
            stats.batches += 1
            stats.tuples += len(piece)
            stats.final_time = now
            if query_every_s is not None and now >= next_query:
                x, y = query_position
                self.server.handle(QueryRequest(t=float(piece.t[-1]), x=x, y=y))
                next_query = now + query_every_s
            if on_progress is not None:
                on_progress(now, stats.tuples)
        stats.covers_built = self.server.covers_stored
        stats.covers_fitted = self.server.builder_fit_count
        stats.windows_sealed = self.server.sealed_windows_total
        stats.final_epoch = getattr(self.server, "epoch", 0)
        return stats
