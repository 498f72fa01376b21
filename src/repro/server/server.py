"""The EnviroMeter server.

Owns the database (raw tuples + model covers), maintains covers lazily
(a window's cover is fitted on first demand and reused until the stream
moves past the window — the paper's "lazy update policies"), and serves
the two request types of Figure 3:

* a :class:`~repro.network.messages.QueryRequest` is answered with the
  interpolated value (the baseline path, and the app's point-query mode);
* a :class:`~repro.network.messages.ModelRequest` is answered with the
  current window's serialized cover — coefficients, centroids and the
  validity horizon ``t_n`` (the model-cache path, Section 2.3).

Concurrency: every request (or request batch) is answered against one
pinned epoch-stamped :class:`~repro.storage.engine.StorageSnapshot`, so
any number of reader threads may call ``handle``/``handle_many`` while a
writer ingests — answers are byte-identical to what a serial server
holding the same snapshot would produce, and ``handle_with_epoch``
exposes which epoch that was.  Writers (ingest, cover fits/stores)
serialise on the server lock; the query evaluation itself (processor
``process``/``process_batch``) runs outside any lock.
:class:`ConcurrentEnviroMeterServer` adds a worker pool on top, fanning
request batches across threads.

Region sharding is not a server concern: the repo's one sharding model
is :class:`~repro.storage.shards.ShardRouter` behind
:class:`~repro.query.sharded.ShardedQueryEngine`, which is what the
network front end (``cli serve --port``) deploys.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.adkmn import AdKMNConfig
from repro.core.builder import CoverBuilder
from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple, TupleBatch
from repro.network.messages import (
    ModelCoverResponse,
    ModelRequest,
    QueryRequest,
    ValueResponse,
)
from repro.query.base import QueryBatch
from repro.query.executor import BatchExecutor, split_chunks
from repro.query.modelcover import ModelCoverProcessor
from repro.query.pipeline.binding import ServerSnapshotBinding
from repro.query.pipeline.cache import CacheStats, ProcessorCache
from repro.query.pipeline.executor import PlanExecutor, PlanRuntime, build_group_plan
from repro.query.pipeline.plan import VECTORISED_POLICY
from repro.storage.engine import Database, StorageSnapshot

Request = Union[QueryRequest, ModelRequest]
Response = Union[ValueResponse, ModelCoverResponse]

DEFAULT_COVER_CACHE_CAPACITY = 256
"""Bound on the per-server deserialized-cover memo (epoch-keyed LRU).

One live entry per window the server recently served; generous enough
that a month of 4-hour windows stays resident, bounded so a long-running
server sweeping years of history cannot accrete covers forever."""


class EnviroMeterServer:
    """Server side of the EnviroMeter platform."""

    def __init__(
        self,
        h: int = 240,
        config: Optional[AdKMNConfig] = None,
        database: Optional[Database] = None,
        validity_horizon_s: float = 4.0 * 3600.0,
    ) -> None:
        """``validity_horizon_s`` is how far past its window's data a
        served cover is declared valid (its ``t_n``).  The default of four
        hours matches the paper's largest evaluation window; the cache-TTL
        ablation sweeps it."""
        self.db = database or Database.for_enviro_meter(partition_h=h)
        if self.db.partition_h is None:
            # e.g. a database loaded from a pre-partitioning (v1) file:
            # adopt the server's windowing so stale-cover invalidation
            # tracks the same windows the builder fits.
            self.db.set_partition_h(h)
        elif self.db.partition_h != h:
            raise ValueError(
                f"database partition_h={self.db.partition_h} does not match "
                f"server h={h}: stale-cover invalidation would track the "
                f"wrong windows"
            )
        self.h = h
        self.validity_horizon_s = validity_horizon_s
        self._builder = CoverBuilder(
            h, config=config, mode="count", validity_margin_s=validity_horizon_s
        )
        # Serialises writers (ingest, cover fit/store) and guards the
        # builder cache; the served-counter lock is separate so counter
        # bumps never contend with a running fit.
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._snapshot: Optional[StorageSnapshot] = None
        # window c -> content stamp of the cover currently indexed in the
        # model_cover table (the epoch the fit saw); used to decide
        # whether a stored blob matches a snapshot's window content.
        self._cover_stamps: Dict[int, int] = {}
        # The serving memo — ("cover", c) -> deserialized cover at the
        # window's content stamp — now one epoch-keyed ProcessorCache, so
        # repeated requests never re-read or re-deserialize a blob under
        # the lock, stale entries are superseded on growth, and the memo
        # is bounded with uniform hit/miss/evict/stale counters.
        self._covers = ProcessorCache(DEFAULT_COVER_CACHE_CAPACITY)
        self._served_covers = 0
        self._served_values = 0
        self._subscriptions = None

    # -- ingestion ----------------------------------------------------------

    def ingest(self, batch: TupleBatch) -> int:
        """Append community-sensed tuples.

        Incremental: the pinned stream snapshot is refreshed in place
        (zero-copy — the new snapshot extends the old one's storage), and
        only the cover caches of the windows the new tuples actually
        touched are invalidated.  Sealed windows keep their covers.
        Safe to call from a writer thread while readers serve queries:
        in-flight requests keep answering against the snapshot they
        pinned at dispatch."""
        with self._lock:
            n = self.db.ingest_tuples(batch)
            self._builder.invalidate_many(self.db.last_touched_windows)
            self._snapshot = self.db.snapshot()
        if n and self._subscriptions is not None:
            self._subscriptions.notify_ingest()
        return n

    def snapshot(self) -> StorageSnapshot:
        """The current epoch-stamped snapshot (refreshed on ingest)."""
        snap = self._snapshot
        if snap is not None and len(snap) == self.db.raw_count():
            return snap
        with self._lock:
            snap = self._snapshot
            if snap is None or len(snap) != self.db.raw_count():
                snap = self.db.snapshot()
                self._snapshot = snap
            return snap

    @property
    def epoch(self) -> int:
        """The database ingest epoch (see :meth:`Database.epoch`)."""
        return self.db.epoch

    def _tuples(self) -> TupleBatch:
        return self.snapshot().batch

    # -- cover maintenance ----------------------------------------------------

    def windows_for(self, ts: Sequence[float]) -> np.ndarray:
        """Window index per query timestamp, in one vectorized search."""
        return self.snapshot().windows_for_times(ts)

    def current_window(self, t: float) -> int:
        """Latest complete-or-current window at time ``t``."""
        return int(self.windows_for((t,))[0])

    def cover_for(self, t: float) -> ModelCover:
        """The model cover responsible for time ``t`` (fitted lazily and
        persisted into the ``model_cover`` table on first fit)."""
        snap = self.snapshot()
        c = int(snap.windows_for_times((t,))[0])
        return self._cover_for(c, snap)

    def _cover_for(self, c: int, snap: StorageSnapshot) -> ModelCover:
        """The cover for window ``c`` *as of the pinned snapshot*.

        The fit/lookup runs under the server lock (so concurrent readers
        never fit the same window twice and never race the writer), but
        the returned cover is evaluated outside it.  A fitted cover is
        only published to the ``model_cover`` table while its window
        still holds exactly the snapshot's data — a fit that lost a race
        with ingest still answers *this* query (correct for its epoch)
        but is not stored, so no future reader at a newer epoch can be
        served the stale cover.
        """
        stamp = snap.window_epoch(c)
        with self._lock:
            memo = self._covers.lookup(("cover", c), stamp)
            if memo is not None:
                return memo
            if self._builder.cached(c, stamp) is None:
                stored = self.db.cover_blob_for_window(c)
                if stored is not None and self._cover_stamps.get(c, stamp) == stamp:
                    # Either the stamp matches, or the blob predates this
                    # server (a loaded database, no recorded stamp): the
                    # cover index only ever holds covers whose window has
                    # not grown since the fit, so adopt it.
                    self._cover_stamps[c] = stamp
                    cover = ModelCover.from_blob(stored[2])
                    self._covers.insert(("cover", c), stamp, cover)
                    return cover
            result = self._builder.build(snap.batch, c, stamp=stamp)
            if (
                self.db.window_epoch(c) == stamp
                and self._cover_stamps.get(c) != stamp
            ):
                self.db.store_cover_blob(
                    c, result.cover.valid_until, result.cover.to_blob()
                )
                self._cover_stamps[c] = stamp
            self._covers.insert(("cover", c), stamp, result.cover)
            return result.cover

    # -- request handling -------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Dispatch one client request (thread-safe)."""
        return self._handle_pinned(request, self.snapshot())

    def handle_with_epoch(self, request: Request) -> Tuple[Response, int]:
        """Like :meth:`handle`, also reporting the snapshot epoch the
        answer was computed at — the hook the concurrency harness uses to
        compare every concurrent answer against a serial replay."""
        snap = self.snapshot()
        return self._handle_pinned(request, snap), snap.epoch

    def _handle_pinned(self, request: Request, snap: StorageSnapshot) -> Response:
        if isinstance(request, QueryRequest):
            return self._handle_query(request, snap)
        if isinstance(request, ModelRequest):
            return self._handle_model_request(request, snap)
        raise TypeError(f"server cannot handle {type(request).__name__}")

    def handle_many(self, requests: Sequence[Request]) -> List[Response]:
        """Dispatch a batch of requests, answering queries vectorised.

        Query requests are grouped by the window responsible for their
        timestamp; each group is answered by one ``process_batch`` call
        against that window's cover — one cover lookup and one vectorised
        evaluation per group instead of one of each per request.  Model
        requests ride along through the scalar path.  Responses come back
        in request order.  The whole batch is answered against a single
        pinned snapshot, so all its answers share one epoch.
        """
        return self.handle_many_with_epoch(requests)[0]

    def handle_many_with_epoch(
        self, requests: Sequence[Request]
    ) -> Tuple[List[Response], int]:
        """:meth:`handle_many` plus the pinned snapshot epoch."""
        snap = self.snapshot()
        responses: List[Optional[Response]] = [None] * len(requests)
        query_positions: List[int] = []
        for i, request in enumerate(requests):
            if isinstance(request, QueryRequest):
                query_positions.append(i)
            else:
                responses[i] = self._handle_pinned(request, snap)
        if query_positions:
            # Compile the batch's queries into one scatter-shaped plan
            # against the pinned snapshot (one cover op per responsible
            # window, each answered by a single vectorised process_batch
            # call) and run it through the shared pipeline executor.
            batch = QueryBatch(
                np.array([requests[i].t for i in query_positions]),
                np.array([requests[i].x for i in query_positions]),
                np.array([requests[i].y for i in query_positions]),
            )
            result = self.execute_plan(batch, snap)
            for k, i in enumerate(query_positions):
                value = (
                    float(result.values[k]) if result.answered[k] else math.nan
                )
                responses[i] = ValueResponse(t=requests[i].t, value=value)
            with self._stats_lock:
                self._served_values += len(query_positions)
        return responses, snap.epoch  # type: ignore[return-value]

    def execute_plan(self, batch: QueryBatch, snap: StorageSnapshot):
        """Answer a columnar query batch through the plan pipeline.

        Builds one cover op per responsible window, bound to the pinned
        snapshot; covers materialise through :meth:`_cover_for` (the
        epoch-keyed memo plus the lazy fit-and-store policy).
        """
        binding = ServerSnapshotBinding(snap)
        plan = build_group_plan(binding, batch, "model-cover", VECTORISED_POLICY)
        runtime = PlanRuntime(
            binding,
            processor=lambda op, bound: ModelCoverProcessor(
                self._cover_for(op.context.window_c, snap)
            ),
        )
        return PlanExecutor(runtime).execute(plan)

    def _handle_query(
        self, request: QueryRequest, snap: StorageSnapshot
    ) -> ValueResponse:
        c = int(snap.windows_for_times((request.t,))[0])
        cover = self._cover_for(c, snap)
        proc = ModelCoverProcessor(cover)
        result = proc.process(QueryTuple(t=request.t, x=request.x, y=request.y))
        with self._stats_lock:
            self._served_values += 1
        value = result.value if result.value is not None else math.nan
        return ValueResponse(t=request.t, value=value)

    def _handle_model_request(
        self, request: ModelRequest, snap: StorageSnapshot
    ) -> ModelCoverResponse:
        c = int(snap.windows_for_times((request.t,))[0])
        cover = self._cover_for(c, snap)
        with self._stats_lock:
            self._served_covers += 1
        return ModelCoverResponse(blob=cover.to_blob())

    # -- standing subscriptions ----------------------------------------------

    @property
    def subscriptions(self):
        """The server's lazily created
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
            route, t_start, interval_s=interval_s, count=count
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
        """How many times the cover fitter actually ran (cache misses)."""
        return self._builder.fit_count

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/evict/stale counters of the cover memo (live view) —
        the uniform counter block every server front end exposes."""
        return self._covers.stats

    @property
    def cover_cache(self) -> ProcessorCache:
        """The epoch-keyed deserialized-cover cache."""
        return self._covers

    # -- replay-stats interface -----------------------------------------------

    @property
    def covers_stored(self) -> int:
        """Rows in the ``model_cover`` table."""
        return len(self.db.table("model_cover"))

    @property
    def sealed_windows_total(self) -> int:
        """Sealed raw-tuple windows in the database."""
        if self.db.partition_h is None:
            return 0
        return len(self.db.sealed_window_ids())

    def has_data(self) -> bool:
        return self.db.raw_count() > 0


class ConcurrentEnviroMeterServer:
    """A thread-pooled front door over a thread-safe EnviroMeter server.

    Wraps an :class:`EnviroMeterServer` and serves ``handle_many``
    batches from ``max_workers`` worker threads: the batch is split into
    contiguous chunks, each chunk answered by the inner server's
    vectorised ``handle_many`` on its own worker, while ingest (called
    from any writer thread) proceeds under the inner server's write
    lock.  Each chunk pins one storage snapshot, so every answer is
    byte-identical to a serial server at that chunk's reported epoch —
    ``handle_many_with_epochs`` reports the per-request epochs for the
    concurrency harness to replay against.

    The wrapper adds no state of its own beyond the pool, so any mix of
    threads may share one instance; single requests bypass the pool.
    """

    def __init__(
        self,
        server: EnviroMeterServer,
        max_workers: Optional[int] = None,
    ) -> None:
        self.inner = server
        self._executor = BatchExecutor(max_workers=max_workers)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool (idempotent; recreated on demand)."""
        self._executor.shutdown()

    def __enter__(self) -> "ConcurrentEnviroMeterServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -------------------------------------------------------------

    def ingest(self, batch: TupleBatch) -> int:
        """Forward to the inner server (safe from any writer thread)."""
        return self.inner.ingest(batch)

    def handle(self, request: Request) -> Response:
        return self.inner.handle(request)

    def handle_with_epoch(self, request: Request) -> Tuple[Response, int]:
        return self.inner.handle_with_epoch(request)

    def handle_many_with_epoch(
        self, requests: Sequence[Request]
    ) -> Tuple[List[Response], int]:
        """One batch on the *calling* thread, pinned to a single epoch —
        for callers that are themselves worker threads (a client-session
        loop); :meth:`handle_many_with_epochs` is the pool-fanned form."""
        return self.inner.handle_many_with_epoch(requests)

    def handle_many(self, requests: Sequence[Request]) -> List[Response]:
        """Answer a request batch across the worker pool, in order."""
        return self.handle_many_with_epochs(requests)[0]

    def handle_many_with_epochs(
        self, requests: Sequence[Request]
    ) -> Tuple[List[Response], np.ndarray]:
        """:meth:`handle_many` plus the snapshot epoch per request.

        Requests within one chunk share an epoch; chunks dispatched while
        a writer ingests may legitimately observe different epochs."""
        if not requests:
            return [], np.empty(0, dtype=np.int64)
        chunks = split_chunks(list(requests), self._executor.workers_for(len(requests)))
        parts = self._executor.map(self.inner.handle_many_with_epoch, chunks)
        responses: List[Response] = []
        epochs = np.empty(len(requests), dtype=np.int64)
        pos = 0
        for chunk, (answers, epoch) in zip(chunks, parts):
            responses.extend(answers)
            epochs[pos : pos + len(chunk)] = epoch
            pos += len(chunk)
        return responses, epochs

    # -- standing subscriptions (delegated to the inner server) ---------------

    @property
    def subscriptions(self):
        return self.inner.subscriptions

    def subscribe(
        self,
        route,
        t_start: float,
        interval_s: float = 60.0,
        count: int = 30,
    ):
        return self.inner.subscribe(
            route, t_start, interval_s=interval_s, count=count
        )

    def poll_updates(self, sub_id: int, maintain: bool = True):
        return self.inner.poll_updates(sub_id, maintain=maintain)

    # -- introspection (replay-stats interface) ------------------------------

    @property
    def epoch(self) -> int:
        return self.inner.epoch

    @property
    def served_values(self) -> int:
        return self.inner.served_values

    @property
    def served_covers(self) -> int:
        return self.inner.served_covers

    @property
    def builder_fit_count(self) -> int:
        return self.inner.builder_fit_count

    @property
    def cache_stats(self) -> CacheStats:
        """The inner server's uniform cover-memo counter block."""
        return self.inner.cache_stats

    @property
    def covers_stored(self) -> int:
        return self.inner.covers_stored

    @property
    def sealed_windows_total(self) -> int:
        return self.inner.sealed_windows_total

    def has_data(self) -> bool:
        return self.inner.has_data()
