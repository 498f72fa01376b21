"""Region-sharded scatter-gather query execution.

:class:`ShardedQueryEngine` answers the same three request shapes as the
single-node :class:`~repro.query.engine.QueryEngine` — point queries,
continuous streams, heatmap grids — against a
:class:`~repro.storage.shards.ShardRouter` holding one shard column
per geographic region.

Since the plan-pipeline refactor the engine is a thin shell over
``repro/query/pipeline``: a request is compiled against a pinned
:class:`~repro.query.pipeline.binding.RouterBinding` into either a
**merge-shaped** plan (exact methods: per-(window, shard) hit scans plus
the exact partition-independent blocked gather of
:mod:`repro.query.pipeline.gather` — answers byte-identical at any
shard count) or a **scatter-shaped** cover plan
(owner-shard model evaluation with an exact fallback sub-plan), and the
shared :class:`~repro.query.pipeline.executor.PlanExecutor` runs it.
Index and cover processors live in the one epoch-keyed
:class:`~repro.query.pipeline.cache.ProcessorCache` (stamped with shard
window *content epochs*, so ingest invalidates exactly what it touched),
and ``method="auto"`` consults the single statistics-backed
:class:`~repro.query.pipeline.planner.PipelinePlanner` per ``(shard,
window)``, which recalibrates from the executor's observed op timings.

The exact-merge semantics (hits in stream order — by construction
where a window's slices can be merged, by one stable sort per block
where not — and one segmented reduction per block) are documented with
the primitives in :mod:`repro.query.pipeline.gather`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.adkmn import AdKMNConfig, fit_adkmn
from repro.data.tuples import QueryTuple, TupleBatch
from repro.geo.coords import BoundingBox
from repro.query.base import BatchResult, QueryBatch, QueryResult
from repro.query.executor import BatchExecutor
from repro.query.indexed import IndexedProcessor, available_index_kinds
from repro.query.modelcover import ModelCoverProcessor
from repro.query.pipeline.binding import RouterBinding
from repro.query.pipeline.cache import CacheStats, ProcessorCache
from repro.query.pipeline.gather import index_pairs, scan_pairs, scan_tile
from repro.query.pipeline.executor import PlanExecutor, PlanRuntime, build_sharded_plan
from repro.query.pipeline.plan import (
    VECTORISED_POLICY,
    ExecutionPlan,
    PlanReport,
    PruneStats,
)
from repro.query.pipeline.planner import PipelinePlanner, PlannerFeedback
from repro.query.planner import QueryProfile
from repro.storage.shards import ShardRouter, StaleLayoutError

SHARDED_METHODS = ("naive",) + available_index_kinds() + ("model-cover", "auto")

#: The most rows :meth:`ShardedQueryEngine.cached_route` answers.  The
#: lane runs on the async front end's event loop, where every other
#: connection waits for it, and its cost grows with the rows — mostly
#: in shaping and serialising the answer — while what it saves (a plan
#: build and the executor hop) does not.  At 128 rows an answer holds
#: the loop ~0.7 ms (p95 ~1.05 ms, about a live-mix request's p95 round
#: trip) and still saves ~13 % of the request; longer routes take the
#: executor (docs/architecture.md, "The non-blocking lane").
CACHED_ROUTE_MAX_ROWS = 128


def shard_runtime(
    binding, cache: ProcessorCache, radius_m: float, config: AdKMNConfig
) -> PlanRuntime:
    """The executor's primitives over region shards — the one wiring
    :class:`ShardedQueryEngine` and every worker process of
    :mod:`repro.query.pipeline.parallel` run plans with.

    ``binding`` resolves an op's ``(shard, window)`` to its pinned
    ``(stamp, slice, gids)``.  Covers and indexes live in ``cache``
    under ``("cover", s, c)`` / ``("index", s, c, kind)`` at the slice's
    content stamp, built outside the cache lock so distinct processors
    materialise in parallel (a lost insert race just discards the
    duplicate — builds only read immutable slices).
    """

    def cover(op, bound):
        stamp, sub, _gids = bound
        s, c = op.context.shard, op.context.window_c

        def build() -> ModelCoverProcessor:
            return ModelCoverProcessor(fit_adkmn(sub, config, window_c=c).cover)

        return cache.get_or_build(("cover", s, c), stamp, build, shared_build=True)

    def prepare_hits(op, bound):
        # Materialise the index before the block loop and outside the
        # executor's timers, so the planner's feedback only ever
        # observes scan cost.  The processor is returned — not
        # re-fetched in hits() — so LRU pressure cannot
        # evict-and-rebuild it inside a timer.
        if op.method == "naive":
            return None
        stamp, sub, _gids = bound
        return cache.get_or_build(
            ("index", op.context.shard, op.context.window_c, op.method),
            stamp,
            lambda: IndexedProcessor(sub, kind=op.method, radius_m=radius_m),
            shared_build=True,
        )

    def hits(op, bound, prepared, lo: int, hi: int):
        if op.method == "naive":
            return scan_pairs(bound[1], op.queries, lo, hi, radius_m)
        return index_pairs(prepared, op.queries, lo, hi)

    def scan(wx, wy, qx, qy):
        return scan_tile(wx, wy, qx, qy, radius_m)

    return PlanRuntime(
        binding, processor=cover, hits=hits, prepare_hits=prepare_hits, scan=scan
    )


class ShardedQueryEngine:
    """Scatter-gather query engine over a region-sharded tuple store.

    ``profile`` parameterises the per-shard planner used by
    ``method="auto"`` (its ``needs_exact_average`` decides whether auto
    may serve model answers); ``max_workers`` caps the thread pool that
    cover plans (``model-cover``, model-tolerant ``auto``) fan their
    per-shard ops out on.  Exact plans run their blocked gather in the
    calling thread whatever the pool's size — for cores on one exact
    request, run it through
    :class:`~repro.query.pipeline.parallel.ProcessShardedEngine`.
    """

    DEFAULT_CACHE_CAPACITY = 128

    def __init__(
        self,
        router: ShardRouter,
        radius_m: float = 1000.0,
        config: Optional[AdKMNConfig] = None,
        profile: Optional[QueryProfile] = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        max_workers: Optional[int] = None,
        prune: bool = True,
    ) -> None:
        if radius_m < 0:
            raise ValueError("radius must be non-negative")
        self.router = router
        self.radius_m = radius_m
        # Plan-time scatter pruning (geometry + zone-map sketches).
        # Answers are byte-identical either way; False compiles the full
        # scatter — the baseline the pruning benchmark measures against.
        self.prune = prune
        self._prune_stats = PruneStats()
        self.config = config or AdKMNConfig()
        self.profile = profile or QueryProfile(radius_m=radius_m)
        self._executor = BatchExecutor(max_workers=max_workers)
        # The one epoch-keyed bounded LRU for index processors, cover
        # processors and planner verdicts, keyed per (shard, window, ...)
        # and stamped with the shard slice's *content epoch*
        # (:meth:`ShardRouter.shard_window_epoch`): ingest that lands
        # tuples in a shard's slice of an open global window advances the
        # stamp, so entries built on a partial window are never served
        # after further ingest, while sealed windows keep their frozen
        # stamps — and their cache hits.  Stamps are always read *before*
        # the slice they stamp (the binding's coherent snapshot_window
        # read), so a racing ingest can only make an entry key
        # conservatively old, never serve a stale processor under a
        # fresh stamp.
        self._cache = ProcessorCache(cache_capacity)
        # The planner keeps its verdicts in its own epoch-keyed store:
        # one verdict per (shard, window, exactness) would otherwise
        # compete with the covers/indexes themselves for LRU slots and
        # thrash the expensive entries out on wide cover plans.
        self._planner = PipelinePlanner(
            self.profile,
            config=self.config,
            radius_m=radius_m,
            feedback=PlannerFeedback(),
        )
        # The cached lanes' counts, read through lane_hits and
        # lane_declines: plain dicts bumped under one lock (a Counter's
        # `+=` would double what counting costs a point-lane hit).
        self._lane_hits = {"point": 0, "route": 0}
        self._lane_declines: Dict[tuple, int] = {}
        self._lane_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    @property
    def executor(self) -> BatchExecutor:
        return self._executor

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/evict/stale counters of the processor cache (live)."""
        return self._cache.stats

    @property
    def processor_cache(self) -> ProcessorCache:
        """The engine's epoch-keyed processor/plan cache."""
        return self._cache

    @property
    def planner(self) -> PipelinePlanner:
        """The statistics-backed planner behind ``method="auto"``."""
        return self._planner

    @property
    def lane_hits(self) -> Counter:
        """Answers the cached lanes gave, by lane (``"point"`` /
        ``"route"``)."""
        with self._lane_lock:
            return +Counter(self._lane_hits)

    @property
    def lane_declines(self) -> Counter:
        """Requests the cached lanes declined to the plan path, by
        ``(lane, reason)`` — one per request that asked a lane."""
        with self._lane_lock:
            return Counter(self._lane_declines)

    @property
    def prune_stats(self) -> PruneStats:
        """Cumulative scatter-pruning counters across every plan built."""
        return self._prune_stats

    def close(self) -> None:
        """Release the worker pool (idempotent; recreated on demand)."""
        self._executor.shutdown()

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared caches -----------------------------------------------------

    def _seed_cover(self, s: int, c: int, stamp: int, proc) -> None:
        """Planner hook: pricing a model-cover plan already paid for the
        fit, so seed the cover cache and never run the same Ad-KMN fit on
        the same slice a second time."""
        self._cache.insert(("cover", s, c), stamp, proc)

    def _planned_method(
        self, s: int, c: int, exact: bool, stamp: int, sub: TupleBatch
    ) -> str:
        """The planner's per-shard method choice for window ``c``.

        ``exact=True`` restricts the plan to raw-data methods (scatter
        scans must merge exactly); planning happens once per (shard,
        window content epoch, exactness) and is cached alongside the
        processors.
        """
        return self._planner.method_for(
            s,
            c,
            stamp,
            sub,
            exact,
            seed_cover=lambda proc: self._seed_cover(s, c, stamp, proc),
        )

    # -- plan pipeline -----------------------------------------------------

    def binding(self) -> RouterBinding:
        """A pinned snapshot binding over the router."""
        return RouterBinding(self.router)

    def plan(
        self,
        queries: Sequence[QueryTuple] | QueryBatch,
        method: str = "naive",
        want_estimates: bool = False,
        prune: Optional[bool] = None,
        binding: Optional[RouterBinding] = None,
    ) -> ExecutionPlan:
        """Compile a query stream against a freshly pinned binding.

        ``prune`` overrides the engine's scatter-pruning default for
        this one plan (the benchmark's unpruned baseline path);
        ``binding`` reuses an externally pinned snapshot (the
        subscription maintenance path) instead of pinning a fresh one.

        When the engine pins the binding itself, a rebalance racing the
        build (:class:`~repro.storage.shards.StaleLayoutError`) is
        retried against a fresh binding — rebalances are rare, so the
        loop terminates in practice after one retry.  Externally pinned
        bindings propagate the error: the caller owns the snapshot and
        must decide how to re-pin.
        """
        if method not in SHARDED_METHODS:
            raise ValueError(
                f"unknown method {method!r}; known: {SHARDED_METHODS}"
            )
        batch = (
            queries
            if isinstance(queries, QueryBatch)
            else QueryBatch.from_queries(queries)
        )
        attempts = 1 if binding is not None else 3
        for attempt in range(attempts):
            try:
                plan = build_sharded_plan(
                    binding if binding is not None else self.binding(),
                    batch,
                    method,
                    self._planner,
                    self.radius_m,
                    policy=VECTORISED_POLICY,
                    seed_cover=self._seed_cover,
                    want_estimates=want_estimates,
                    prune=self.prune if prune is None else prune,
                )
                break
            except StaleLayoutError:
                if binding is not None or attempt == attempts - 1:
                    raise
        self._prune_stats.observe(plan)
        return plan

    def _plan_executor(self, plan: ExecutionPlan) -> PlanExecutor:
        # Feed per-op scan load to the router's tracker so the adaptive
        # rebalancer sees read skew, not just ingest skew.
        return PlanExecutor(
            shard_runtime(plan.binding, self._cache, self.radius_m, self.config),
            pool=self._executor,
            planner=self._planner,
            load=self.router.load.record_scan,
        )

    def execute(
        self, plan: ExecutionPlan, report: Optional[PlanReport] = None
    ) -> BatchResult:
        """Run a compiled plan through the shared executor."""
        return self._plan_executor(plan).execute(plan, report)

    # -- the three web-interface modes -------------------------------------

    def continuous_query_batch(
        self,
        queries: Sequence[QueryTuple] | QueryBatch,
        method: str = "naive",
    ) -> BatchResult:
        """Columnar continuous-query mode, results in stream order."""
        if method not in SHARDED_METHODS:
            raise ValueError(
                f"unknown method {method!r}; known: {SHARDED_METHODS}"
            )
        batch = (
            queries
            if isinstance(queries, QueryBatch)
            else QueryBatch.from_queries(queries)
        )
        if not len(batch):
            return BatchResult(
                batch, np.empty(0), np.empty(0, dtype=np.int64)
            )
        return self.execute(self.plan(batch, method))

    def continuous_query(
        self,
        queries: Sequence[QueryTuple],
        method: str = "naive",
    ) -> List[QueryResult]:
        return self.continuous_query_batch(queries, method=method).results()

    def point_query(
        self, t: float, x: float, y: float, method: str = "naive"
    ) -> QueryResult:
        batch = QueryBatch(
            np.array([t]), np.array([x]), np.array([y])
        )
        return self.continuous_query_batch(batch, method=method).result(0)

    def _lane_decline(self, lane: str, reason: str) -> None:
        """Count a declined lane request; ``None`` is the lane's answer."""
        key = (lane, reason)
        with self._lane_lock:
            self._lane_declines[key] = self._lane_declines.get(key, 0) + 1

    def cached_point(
        self, t: float, x: float, y: float, method: str = "naive"
    ) -> Optional[QueryResult]:
        """The ``model-cover`` answer when the owner slice's cover is
        cached at its live stamp, else ``None`` (ask :meth:`point_query`).

        The async front end's non-blocking lane: no plan, and only reads
        the router serves without its lock — it never waits on an ingest
        or a seal, never faults a segment in, never fits.  Other methods,
        a non-finite coordinate, an empty router or owner slice (the
        exact fallback's case) and a missing or stale cover are ``None``,
        counted in :attr:`lane_declines` only — no cache counter is
        touched (the plan path counts that miss).  A
        cover cached at ``stamp`` was fitted on exactly the rows the
        stamp names, so a hit is what the plan path answers when it pins
        now.  It is computed on Python floats — the router's and grid's
        scalar reads, then ``process`` — which tests hold bitwise equal
        to the plan path's 1-row arrays (``shard_of == shards_of[0]``,
        ``window_for_time == windows_for_times[0]``, ``process ==
        process_batch`` for every model family).  A re-cut publishes its
        stamp tables before its grid and holds the router lock until
        both are out, so nothing is cached at its stamps before then: a
        hit is of one layout iff the grid read first is still live after
        the probe.
        """
        router = self.router
        if method != "model-cover":
            return self._lane_decline("point", "method")
        if not router.global_count():
            return self._lane_decline("point", "empty")
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
            return self._lane_decline("point", "non-finite")
        grid = router.grid
        c = router.window_for_time(t)
        s = grid.shard_of(x, y)
        stamp = router.shard_window_epoch(s, c)
        if not stamp:
            return self._lane_decline("point", "fallback")
        proc = self._cache.peek(("cover", s, c), stamp, count_hit=True)
        if proc is None:
            return self._lane_decline("point", "cover")
        if router.grid is not grid:
            return self._lane_decline("point", "recut")
        t0 = time.perf_counter()
        result = proc.process(QueryTuple(t, x, y))
        # PlanExecutor._observe's report for an unpriced cover op: the
        # rebalancer keeps seeing read skew.
        units = float(max(router.shard_window_sketch(s, c).n_rows, 1))
        router.load.record_scan(s, 1, units, time.perf_counter() - t0)
        with self._lane_lock:
            self._lane_hits["point"] += 1
        return result

    def cached_route(
        self, batch: QueryBatch, method: str = "naive"
    ) -> Optional[BatchResult]:
        """:meth:`cached_point` for a whole query stream: the
        ``model-cover`` answer when every (window, owner shard) the
        stream touches has its cover cached at its live stamp, else
        ``None`` (ask :meth:`continuous_query_batch`).

        The vector forms the plan path routes with — one
        ``windows_for_times`` and one ``grid.shards_of`` over the batch
        — then per distinct (window, owner) a lock-free stamp read and a
        :meth:`ProcessorCache.peek` of its cover; only when every cover
        is cached is a hit counted per cover, as the plan path's lookups
        count them (a decline touches no cache counter).  Each cover evaluates its
        rows with :meth:`ModelCover.predict_batch`, the kernel the plan
        path's cover ops run, and each is reported to the shard-load
        tracker as one unpriced cover op.  Declined, counted in
        :attr:`lane_declines`, with nothing fitted, scanned, faulted in
        or waited for: another method, more than
        :data:`CACHED_ROUTE_MAX_ROWS` rows, an empty batch or router, a
        non-finite input, an empty owner slice (the exact fallback's
        case), a missing or stale cover, and a re-cut in flight (the
        grid read first is checked last, as in :meth:`cached_point`).
        """
        router = self.router
        n = len(batch)
        if method != "model-cover":
            return self._lane_decline("route", "method")
        if n > CACHED_ROUTE_MAX_ROWS:
            return self._lane_decline("route", "rows")
        if not n or not router.global_count():
            return self._lane_decline("route", "empty")
        t, x, y = batch.t, batch.x, batch.y
        if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(y).all()):
            return self._lane_decline("route", "non-finite")
        grid = router.grid
        n_shards = grid.n_regions
        pair = router.windows_for_times(t) * n_shards + grid.shards_of(x, y)
        # The plan path's grouping: one stable sort on the (window,
        # owner) key makes each pair's rows a run, in stream order.
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
        runs = [0, *(np.flatnonzero(pair[1:] != pair[:-1]) + 1).tolist(), n]
        keys, stamps = [], []
        for lo in runs[:-1]:
            c, s = divmod(int(pair[lo]), n_shards)
            stamp = router.shard_window_epoch(s, c)
            if not stamp:
                return self._lane_decline("route", "fallback")
            keys.append(("cover", s, c))
            stamps.append(stamp)
        cache = self._cache
        procs = [cache.peek(key, stamp) for key, stamp in zip(keys, stamps)]
        if any(proc is None for proc in procs):
            return self._lane_decline("route", "cover")
        if router.grid is not grid:
            return self._lane_decline("route", "recut")
        # A hit per cover, as the plan path's lookups count them, once
        # every cover is known cached: a declined route counts nothing.
        for key, stamp in zip(keys, stamps):
            cache.peek(key, stamp, count_hit=True)
        clock = time.perf_counter
        if len(procs) > 1:
            t, x, y = t[order], x[order], y[order]
        values = np.empty(n)  # in run order
        for (_cover, s, c), proc, lo, hi in zip(keys, procs, runs, runs[1:]):
            t0 = clock()
            values[lo:hi] = proc.cover.predict_batch(t[lo:hi], x[lo:hi], y[lo:hi])
            elapsed = clock() - t0
            # PlanExecutor._observe's report for an unpriced cover op.
            units = float(max(router.shard_window_sketch(s, c).n_rows, 1))
            router.load.record_scan(s, hi - lo, units * (hi - lo), elapsed)
        if len(procs) > 1:
            values[order] = values.copy()  # back to stream order
        with self._lane_lock:
            self._lane_hits["route"] += 1
        return BatchResult(
            batch, values, np.ones(n, dtype=np.int64), answered=np.ones(n, dtype=bool)
        )

    def heatmap_grid(
        self,
        t: float,
        bounds: BoundingBox,
        nx: int = 40,
        ny: int = 30,
        method: str = "naive",
    ) -> np.ndarray:
        """Heatmap mode: an ``(ny, nx)`` grid scattered across shards.

        Each shard only scans the cells whose disks can reach its region
        — the pruning that turns region sharding into a heatmap
        throughput win — and partial tiles merge exactly.
        """
        probes = QueryBatch.from_grid(
            t, bounds.min_x, bounds.min_y, bounds.width, bounds.height, nx, ny
        )
        return self.continuous_query_batch(probes, method=method).grid(ny, nx)
