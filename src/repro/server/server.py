"""The EnviroMeter server: the paper's protocol over the one query engine.

Serves the two request types of Figure 3:

* a :class:`~repro.network.messages.QueryRequest` is answered with the
  interpolated value (the baseline path, and the app's point-query mode);
* a :class:`~repro.network.messages.ModelRequest` is answered with the
  current window's serialized cover — coefficients, centroids and the
  validity horizon ``t_n`` (the model-cache path, Section 2.3).

The server is a thin facade over a
:class:`~repro.query.sharded.ShardedQueryEngine` on a one-shard router
(:func:`~repro.storage.shards.single_shard_router`): :meth:`ingest` is
the router's ingest (and its contract — finite, time-sorted, never
before the last accepted tuple), and a window's cover is the engine's
``model-cover`` processor, fitted on first demand and kept in the
engine's epoch-keyed cache until the window grows (the paper's "lazy
update policies").  A served cover is stamped ``t_n`` = its window's
last timestamp + ``validity_horizon_s``.

Concurrency: every request (or request batch) is answered through one
:class:`~repro.query.pipeline.binding.RouterBinding`, an exact snapshot
of the stream at one epoch, so any number of reader threads may call
:meth:`~EnviroMeterServer.handle` / :meth:`~EnviroMeterServer.handle_many`
while a writer ingests — answers are byte-identical to a serial server
holding that epoch's rows, and the ``_with_epoch`` forms report which
epoch that was.  ``max_workers`` sizes the engine's thread pool, which
fans a large batch's cover evaluations out.

Region sharding is not a server concern: the network front end
(``cli serve --port``) deploys the same engine over a
:class:`~repro.storage.shards.ShardRouter` with many regions.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.adkmn import AdKMNConfig
from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple, TupleBatch
from repro.network.messages import (
    ModelCoverResponse,
    ModelRequest,
    QueryRequest,
    ValueResponse,
)
from repro.query.base import QueryBatch
from repro.query.pipeline.binding import RouterBinding
from repro.query.pipeline.cache import CacheStats, ProcessorCache
from repro.query.sharded import ShardedQueryEngine, cached_cover
from repro.storage.shards import single_shard_router

Request = Union[QueryRequest, ModelRequest]
Response = Union[ValueResponse, ModelCoverResponse]

DEFAULT_COVER_CACHE_CAPACITY = 256
"""Bound on the engine's cover cache (epoch-keyed LRU).

One live entry per window the server recently served; generous enough
that a month of 4-hour windows stays resident, bounded so a long-running
server sweeping years of history cannot accrete covers forever."""


class EnviroMeterServer:
    """Server side of the EnviroMeter platform."""

    def __init__(
        self,
        h: int = 240,
        config: Optional[AdKMNConfig] = None,
        validity_horizon_s: float = 4.0 * 3600.0,
        max_workers: Optional[int] = None,
    ) -> None:
        """``validity_horizon_s`` is how far past its window's data a
        served cover is declared valid (its ``t_n``).  The default of four
        hours matches the paper's largest evaluation window; the cache-TTL
        ablation sweeps it.  ``max_workers`` caps the engine's pool."""
        self.h = h
        self.validity_horizon_s = validity_horizon_s
        self.engine = ShardedQueryEngine(
            single_shard_router(h),
            config=config,
            cache_capacity=DEFAULT_COVER_CACHE_CAPACITY,
            max_workers=max_workers,
        )
        self._stats_lock = threading.Lock()
        self._served_covers = 0
        self._served_values = 0
        self._subscriptions = None

    def close(self) -> None:
        """Release the engine's worker pool (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "EnviroMeterServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ingestion ----------------------------------------------------------

    def ingest(self, batch: TupleBatch) -> int:
        """Append community-sensed tuples; returns how many.

        A batch that breaks the router's ingest contract raises
        ``ValueError`` and changes nothing.  Only the windows the new
        tuples touch get new content stamps, so sealed windows keep their
        cached covers.  Safe to call from a writer thread while readers
        serve queries: in-flight requests keep answering against the
        epoch they pinned."""
        n = sum(self.engine.router.ingest(batch))
        if n and self._subscriptions is not None:
            self._subscriptions.notify_ingest()
        return n

    @property
    def epoch(self) -> int:
        """The ingest epoch: +1 per non-empty :meth:`ingest`."""
        return self.engine.router.epoch

    # -- covers ---------------------------------------------------------------

    def windows_for(self, ts: Sequence[float]) -> np.ndarray:
        """Window index per query timestamp, in one vectorised search."""
        return self.engine.router.windows_for_times(ts)

    def current_window(self, t: float) -> int:
        """Latest complete-or-current window at time ``t``."""
        return int(self.windows_for((t,))[0])

    def cover_for(self, t: float) -> ModelCover:
        """The model cover responsible for time ``t``, as served."""
        return self._cover(self.engine.binding(), t)

    def _processor(self, binding: RouterBinding, t: float):
        """``(window slice, cover processor)`` owning time ``t`` at the
        binding's pin — the entry a cover plan's op answers from."""
        c = int(binding.windows_for_times((t,))[0])
        bound = binding.slice_for(0, c)
        engine = self.engine
        return bound[1], cached_cover(engine.processor_cache, engine.config, 0, c, bound)

    def _cover(self, binding: RouterBinding, t: float) -> ModelCover:
        """The cover owning time ``t`` at the binding's pin, stamped
        ``t_n`` = its window's last timestamp + the validity horizon."""
        rows, proc = self._processor(binding, t)
        valid_until = float(rows.t[-1]) + self.validity_horizon_s
        return dataclasses.replace(proc.cover, valid_until=valid_until)

    # -- request handling -------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Dispatch one client request (thread-safe)."""
        return self.handle_many_with_epoch([request])[0][0]

    def handle_with_epoch(self, request: Request) -> Tuple[Response, int]:
        """Like :meth:`handle`, also reporting the epoch the answer was
        computed at — the hook the concurrency harness uses to compare
        every concurrent answer against a serial replay."""
        responses, epoch = self.handle_many_with_epoch([request])
        return responses[0], epoch

    def handle_many(self, requests: Sequence[Request]) -> List[Response]:
        """Dispatch a batch of requests, in request order.

        The batch's query requests run as one ``model-cover`` plan: one
        cover op per window, each a single vectorised evaluation.  A lone
        query skips the plan's fixed cost and is evaluated on the cover
        its op would hold (the same value, bit for bit).  A
        query request with a non-finite field is answered ``NaN`` (no
        data); a model request with a non-finite time raises
        ``ValueError``.  The whole batch is answered against one pinned
        binding, so all its answers share one epoch.
        """
        return self.handle_many_with_epoch(requests)[0]

    def handle_many_with_epoch(
        self, requests: Sequence[Request]
    ) -> Tuple[List[Response], int]:
        """:meth:`handle_many` plus the pinned epoch."""
        binding = self.engine.binding()
        responses: List[Optional[Response]] = [None] * len(requests)
        queries: List[int] = []
        covers = 0
        for i, request in enumerate(requests):
            if isinstance(request, QueryRequest):
                if all(map(math.isfinite, (request.t, request.x, request.y))):
                    queries.append(i)
                else:
                    responses[i] = ValueResponse(t=request.t, value=math.nan)
            elif isinstance(request, ModelRequest):
                if not math.isfinite(request.t):
                    raise ValueError(f"model request time must be finite, got {request.t}")
                responses[i] = ModelCoverResponse(
                    blob=self._cover(binding, request.t).to_blob()
                )
                covers += 1
            else:
                raise TypeError(f"server cannot handle {type(request).__name__}")
        if len(queries) == 1:
            request = requests[queries[0]]
            _rows, proc = self._processor(binding, request.t)
            value = proc.process(QueryTuple(request.t, request.x, request.y)).value
            responses[queries[0]] = ValueResponse(
                t=request.t, value=math.nan if value is None else value
            )
        elif queries:
            batch = QueryBatch(
                np.array([requests[i].t for i in queries]),
                np.array([requests[i].x for i in queries]),
                np.array([requests[i].y for i in queries]),
            )
            engine = self.engine
            result = engine.execute(engine.plan(batch, "model-cover", binding=binding))
            for k, i in enumerate(queries):
                value = float(result.values[k]) if result.answered[k] else math.nan
                responses[i] = ValueResponse(t=requests[i].t, value=value)
        with self._stats_lock:
            self._served_covers += covers
            self._served_values += len(requests) - covers
        return responses, binding.epoch  # type: ignore[return-value]

    # -- standing subscriptions ----------------------------------------------

    @property
    def subscriptions(self):
        """The engine's lazily created
        :class:`~repro.query.subscriptions.SubscriptionRegistry` (ingest
        notifies it so pollers and push bridges wake up)."""
        if self._subscriptions is None:
            from repro.query.subscriptions import registry_for

            self._subscriptions = registry_for(self)
        return self._subscriptions

    def subscribe(
        self,
        route,
        t_start: float,
        interval_s: float = 60.0,
        count: int = 30,
    ):
        """Register a standing continuous query (model-cover answers);
        returns the :class:`~repro.query.subscriptions.Subscription`,
        whose ``initial`` update holds the full answer at registration."""
        return self.subscriptions.subscribe(
            route, t_start, interval_s=interval_s, count=count, method="model-cover"
        )

    def poll_updates(self, sub_id: int, maintain: bool = True):
        """Drain a subscription's queued delta updates, running one
        epoch-delta maintenance pass first by default."""
        return self.subscriptions.poll(sub_id, maintain=maintain)

    # -- introspection -------------------------------------------------------------

    @property
    def served_values(self) -> int:
        return self._served_values

    @property
    def served_covers(self) -> int:
        return self._served_covers

    @property
    def builder_fit_count(self) -> int:
        """How many covers the engine fitted: its cache misses (a miss
        is one build, and this server builds nothing but covers)."""
        return self.engine.cache_stats.misses

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/evict/stale counters of the cover cache (live view) —
        the uniform counter block every server front end exposes."""
        return self.engine.cache_stats

    @property
    def cover_cache(self) -> ProcessorCache:
        """The engine's epoch-keyed cover cache."""
        return self.engine.processor_cache

    @property
    def sealed_windows_total(self) -> int:
        """Windows holding all ``h`` of their tuples."""
        return self.engine.router.global_count() // self.h

    def has_data(self) -> bool:
        return self.engine.router.global_count() > 0
