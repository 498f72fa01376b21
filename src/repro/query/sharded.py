"""Region-sharded scatter-gather query execution.

:class:`ShardedQueryEngine` answers the three request shapes of the web
interface — point queries, continuous streams, heatmap grids — against
a :class:`~repro.storage.shards.ShardRouter` holding one shard column
per geographic region.  It is the one query engine: an unsharded store
is a one-region router (:func:`~repro.storage.shards.single_shard_router`).

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
window *content epochs*, so ingest invalidates exactly what it touched).

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.adkmn import AdKMNConfig, fit_adkmn
from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple
from repro.geo.coords import BoundingBox
from repro.query.base import BatchResult, QueryBatch, QueryResult
from repro.query.executor import BatchExecutor
from repro.query.indexed import IndexedProcessor, available_index_kinds
from repro.query.modelcover import ModelCoverProcessor
from repro.query.pipeline.binding import RouterBinding
from repro.query.pipeline.cache import CacheStats, ProcessorCache
from repro.query.pipeline.gather import (
    BLOCK_CELLS,
    index_pairs,
    merged_rows,
    reduce_row_block,
    scan_pairs,
    scan_tile,
)
from repro.query.pipeline.executor import PlanExecutor, PlanRuntime, build_sharded_plan
from repro.query.pipeline.plan import ExecutionPlan, FallbackOp, PlanReport, PruneStats
from repro.storage.shards import ShardRouter, StaleLayoutError

SHARDED_METHODS = ("naive",) + available_index_kinds() + ("model-cover",)

#: The most rows :meth:`ShardedQueryEngine.cached_route` answers.  The
#: lane runs on the async front end's event loop, where every other
#: connection waits for it, and its cost grows with the rows — mostly
#: in shaping and serialising the answer — while what it saves (a plan
#: build and the executor hop) does not.  At 128 rows an answer holds
#: the loop ~0.7 ms (p95 ~1.05 ms, about a live-mix request's p95 round
#: trip) and still saves ~13 % of the request; longer routes take the
#: executor (docs/architecture.md, "The non-blocking lane").
CACHED_ROUTE_MAX_ROWS = 128


def cached_cover(
    cache: ProcessorCache, config: AdKMNConfig, s, c: int, bound
) -> ModelCoverProcessor:
    """The cover of shard ``s``'s slice of window ``c`` from ``cache``,
    stored under ``("cover", s, c)`` at the bound slice's stamp and
    fitted outside the cache lock on a miss."""
    stamp, sub, _gids = bound

    def build() -> ModelCoverProcessor:
        return ModelCoverProcessor(fit_adkmn(sub, config, window_c=c).cover)

    return cache.get_or_build(("cover", s, c), stamp, build)


class WindowRows(NamedTuple):
    """Window ``c``'s rows over every shard, merged in stream order —
    the ``("rows", c)`` entry the cached lanes answer an empty owner
    slice from, with the tile and reduce the exact gather runs."""

    #: Each shard's slice stamp in the state the rows are of (index =
    #: shard); 0 where the slice was empty.
    stamps: Tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray


def window_rows(cache: ProcessorCache, binding, c: int) -> Optional[WindowRows]:
    """Window ``c``'s rows over every shard of ``binding`` from
    ``cache``, stored under ``("rows", c)`` at the largest of the pinned
    slices' stamps — the epoch of the last ingest that reached the
    window, so the stamp names its content — and merged outside the
    cache lock on a miss.

    ``None`` when a slice of ``c`` is sealed, not empty and not pinned
    in ``binding`` (:meth:`RouterBinding.in_memory`): a plan that pruned
    it did not fault it in, and caching the window's rows must not
    either."""
    n_shards = binding.n_shards
    if not all(binding.in_memory(s, c) for s in range(n_shards)):
        return None
    bounds = [binding.slice_for(s, c) for s in range(n_shards)]
    stamps = tuple(stamp for stamp, _sub, _gids in bounds)

    def build() -> WindowRows:
        return WindowRows(stamps, *merged_rows(bounds))

    return cache.get_or_build(("rows", c), max(stamps), build)


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
        return cached_cover(cache, config, op.context.shard, op.context.window_c, bound)

    def prepare_hits(op, bound):
        # Materialise the index before the block loop and outside the
        # executor's timers, so the load tracker and ``explain`` only
        # ever observe scan cost.  The processor is returned — not
        # re-fetched in hits() — so LRU pressure cannot
        # evict-and-rebuild it inside a timer.
        if op.method == "naive":
            return None
        stamp, sub, _gids = bound
        return cache.get_or_build(
            ("index", op.context.shard, op.context.window_c, op.method),
            stamp,
            lambda: IndexedProcessor(sub, kind=op.method, radius_m=radius_m),
        )

    def hits(op, bound, prepared, lo: int, hi: int):
        if op.method == "naive":
            return scan_pairs(bound[1], op.queries, lo, hi, radius_m)
        return index_pairs(prepared, op.queries, lo, hi)

    return PlanRuntime(
        binding, processor=cover, hits=hits, prepare_hits=prepare_hits, radius_m=radius_m
    )


class ShardedQueryEngine:
    """Scatter-gather query engine over a region-sharded tuple store.

    ``max_workers`` caps the thread pool that ``model-cover`` plans fan
    their per-shard ops out on.  Exact plans run their blocked gather in the
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
        self._executor = BatchExecutor(max_workers=max_workers)
        # The one epoch-keyed bounded LRU for index and cover
        # processors, keyed per (shard, window, ...)
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
        # Window rows for the lanes (``window_rows``) live in their own
        # epoch-keyed store: one entry per state of an open window that
        # sent a query to the exact fallback, cheap to rebuild, would
        # otherwise compete with the covers/indexes for LRU slots and
        # push fitted covers out.
        self._rows = ProcessorCache(cache_capacity)
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
    def rows_cache(self) -> ProcessorCache:
        """The ``("rows", c)`` entries the cached lanes answer empty
        owner slices from (:func:`window_rows`), with their own
        counters."""
        return self._rows

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

    # -- plan pipeline -----------------------------------------------------

    def binding(self) -> RouterBinding:
        """A pinned snapshot binding over the router."""
        return RouterBinding(self.router)

    def plan(
        self,
        queries: Sequence[QueryTuple] | QueryBatch,
        method: str = "naive",
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
                    self.radius_m,
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
            load=self.router.load.record_scan,
        )

    def execute(
        self, plan: ExecutionPlan, report: Optional[PlanReport] = None
    ) -> BatchResult:
        """Run a compiled plan through the shared executor.

        A ``model-cover`` plan then caches, through :func:`window_rows`,
        the rows of every window its exact fallback answered — unless
        that would read a sealed slice the plan pruned: what the cached
        lanes answer an empty owner slice from."""
        result = self._plan_executor(plan).execute(plan, report)
        if plan.method == "model-cover":
            for op in plan.ops:
                if isinstance(op, FallbackOp):
                    windows = plan.binding.windows_for_times(op.plan.queries.t)
                    for c in np.unique(windows).tolist():
                        window_rows(self._rows, plan.binding, c)
        return result

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

    def covers_at(self, t: float) -> List[ModelCover]:
        """The model covers of the window that owns time ``t``, one per
        shard with rows in it, in shard order: the ``("cover", s, c)``
        entries cover plans answer from, fitted into the cache on a
        miss, over one pinned binding."""
        binding = self.binding()
        c = int(binding.windows_for_times((t,))[0])
        bounds = [binding.slice_for(s, c) for s in range(binding.n_shards)]
        return [
            cached_cover(self._cache, self.config, s, c, bound).cover
            for s, bound in enumerate(bounds)
            if len(bound[1])
        ]

    def _lane_decline(self, lane: str, reason: str) -> None:
        """Count a declined lane request; ``None`` is the lane's answer."""
        key = (lane, reason)
        with self._lane_lock:
            self._lane_declines[key] = self._lane_declines.get(key, 0) + 1

    def _lane_tables(self, runs, n_shards: int) -> Optional[Dict[int, WindowRows]]:
        """The ``("rows", c)`` entries a lane answers the empty owners
        of ``runs`` from, by window, or ``None`` — the lanes'
        ``"fallback"`` decline.

        ``runs`` are the ``(window, owner, stamp, first, end)`` the lane
        read, a stamp of 0 for an empty owner.  Per window with an empty
        owner, lock-free reads: every shard's live stamp, then a peek at
        the largest.  The entry must hold the state those stamps name,
        and each of the window's runs must have read the entry's stamp
        for its owner — a cover read before an ingest the later reads
        saw, or an owner that gained rows in between, is a torn read.
        And the empty owners' queries over their windows' rows must make
        at most :data:`BLOCK_CELLS` cells in all, the exact gather's
        block, so a lane request holds the loop no longer than one block
        of a plan does.
        """
        router = self.router
        tables: Dict[int, WindowRows] = {}
        cells = 0
        for c, _s, stamp, lo, hi in runs:
            if stamp:
                continue
            rows = tables.get(c)
            if rows is None:
                live = tuple(router.shard_window_epoch(s, c) for s in range(n_shards))
                rows = self._rows.peek(("rows", c), max(live))
                if rows is None or rows.stamps != live:
                    return None
                if any(rows.stamps[s] != read for w, s, read, *_ in runs if w == c):
                    return None
                tables[c] = rows
            cells += (hi - lo) * len(rows.s)
        return tables if cells <= BLOCK_CELLS else None

    def _scan_rows(self, c: int, rows: WindowRows, qx, qy, values, support) -> None:
        """Answer queries ``(qx, qy)`` over window ``c``'s ``rows`` into
        ``values`` / ``support`` (NaN / 0 where nothing is in range):
        the tile and the by-construction reduce of the exact gather, so
        the bytes are the fallback sub-plan's.  Each shard with rows is
        reported to the load tracker as scanned by every query, its
        share of the seconds by rows, as a naive scan op is."""
        router = self.router
        n = len(qx)
        t0 = time.perf_counter()
        flat = scan_tile(rows.x, rows.y, qx, qy, self.radius_m)
        reduce_row_block(flat, rows.s, np.arange(n), values, support)
        elapsed = time.perf_counter() - t0
        for s, stamp in enumerate(rows.stamps):
            if stamp:
                n_rows = router.shard_window_sketch(s, c).n_rows
                router.load.record_scan(
                    s, n, float(n_rows * n), elapsed * n_rows / len(rows.s)
                )

    def cached_point(
        self, t: float, x: float, y: float, method: str = "naive"
    ) -> Optional[QueryResult]:
        """The ``model-cover`` answer when the owner slice's cover is
        cached at its live stamp — or, when the owner slice is empty,
        when the window's rows are (:meth:`_lane_tables`) — else ``None``
        (ask :meth:`point_query`).

        The async front end's non-blocking lane: no plan, and only reads
        the router serves without its lock — it never waits on an ingest
        or a seal, never faults a segment in, never fits.  Other methods,
        a non-finite coordinate, an empty router, an empty owner slice
        whose window rows are not cached at their live stamps (or number
        more than :data:`BLOCK_CELLS`), and a missing or stale cover are
        ``None``, counted in :attr:`lane_declines` only — no
        cache counter is touched (the plan path counts that miss).  A
        cover cached at ``stamp`` was fitted on exactly the rows the
        stamp names, so a hit is what the plan path answers when it pins
        now.  It is computed on Python floats — the router's and grid's
        scalar reads, then ``process`` — which tests hold bitwise equal
        to the plan path's 1-row arrays (``shard_of == shards_of[0]``,
        ``window_for_time == windows_for_times[0]``, ``process ==
        process_batch`` for every model family).  An empty owner's
        answer is the exact fallback's, from the same helpers as
        :meth:`cached_route`'s.  A re-cut publishes its stamp tables
        before its grid and holds the router lock until both are out, so
        nothing is cached at its stamps before then: a hit is of one
        layout iff the grid read first is still live after the probe.
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
            return self._cached_point_rows(grid, c, s, t, x, y)
        proc = self._cache.peek(("cover", s, c), stamp, count_hit=True)
        if proc is None:
            return self._lane_decline("point", "cover")
        if router.grid is not grid:
            return self._lane_decline("point", "recut")
        t0 = time.perf_counter()
        result = proc.process(QueryTuple(t, x, y))
        # PlanExecutor._observe's report for a cover op, rows per
        # query: the rebalancer keeps seeing read skew.
        units = float(max(router.shard_window_sketch(s, c).n_rows, 1))
        router.load.record_scan(s, 1, units, time.perf_counter() - t0)
        with self._lane_lock:
            self._lane_hits["point"] += 1
        return result

    def _cached_point_rows(self, grid, c, s, t, x, y) -> Optional[QueryResult]:
        """:meth:`cached_point` for a point whose owner slice is empty."""
        tables = self._lane_tables([(c, s, 0, 0, 1)], grid.n_regions)
        if tables is None:
            return self._lane_decline("point", "fallback")
        rows = tables[c]
        if self.router.grid is not grid:
            return self._lane_decline("point", "recut")
        self._rows.peek(("rows", c), max(rows.stamps), count_hit=True)
        values, support = np.full(1, np.nan), np.zeros(1, dtype=np.int64)
        self._scan_rows(c, rows, np.array([x]), np.array([y]), values, support)
        with self._lane_lock:
            self._lane_hits["point"] += 1
        value = float(values[0]) if support[0] else None
        return QueryResult(QueryTuple(t, x, y), value, int(support[0]))

    def cached_route(
        self, batch: QueryBatch, method: str = "naive"
    ) -> Optional[BatchResult]:
        """:meth:`cached_point` for a whole query stream: the
        ``model-cover`` answer when every (window, owner shard) the
        stream touches has its cover cached at its live stamp or, for an
        empty owner slice, its window's rows cached at the window's live
        stamps, else ``None`` (ask :meth:`continuous_query_batch`).

        The vector forms the plan path routes with — one
        ``windows_for_times`` and one ``grid.shards_of`` over the batch
        — then per distinct (window, owner) a lock-free stamp read and a
        :meth:`ProcessorCache.peek` of its cover; per window with an
        empty owner, :meth:`_lane_tables`.  Only when everything is cached
        is a hit counted per cover and per window's rows, as the plan
        path's lookups count them (a decline touches no cache counter).
        Each cover evaluates its rows with :meth:`ModelCover.predict_batch`,
        the kernel the plan path's cover ops run, and is reported to the
        shard-load tracker as one cover op; an empty owner's
        rows are the exact fallback's tile and reduce over the window's
        rows (:meth:`_scan_rows`).  Declined, counted in
        :attr:`lane_declines`, with nothing fitted, faulted in or waited
        for: another method, more than :data:`CACHED_ROUTE_MAX_ROWS`
        rows, an empty batch or router, a non-finite input, an empty
        owner slice :meth:`_lane_tables` cannot answer (``"fallback"``:
        its window's rows not cached at their live stamps, or more than
        :data:`BLOCK_CELLS` cells over all the route's empty owners), a
        missing or stale cover, and a re-cut in flight (the grid read
        first is checked last, as in :meth:`cached_point`).
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
        bounds = [0, *(np.flatnonzero(pair[1:] != pair[:-1]) + 1).tolist(), n]
        runs = []  # (window, owner, stamp, first row, end row), window-major
        for lo, hi in zip(bounds, bounds[1:]):
            c, s = divmod(int(pair[lo]), n_shards)
            runs.append((c, s, router.shard_window_epoch(s, c), lo, hi))
        tables = self._lane_tables(runs, n_shards)  # the rows of empty owners' windows
        if tables is None:
            return self._lane_decline("route", "fallback")
        cache = self._cache
        covers = [
            (("cover", s, c), stamp, cache.peek(("cover", s, c), stamp))
            for c, s, stamp, _lo, _hi in runs
            if stamp
        ]
        if any(proc is None for _key, _stamp, proc in covers):
            return self._lane_decline("route", "cover")
        if router.grid is not grid:
            return self._lane_decline("route", "recut")
        # A hit per cover and per window's rows, as the plan path's
        # lookups count them, once everything is known cached: a
        # declined route counts nothing.
        for key, stamp, _proc in covers:
            cache.peek(key, stamp, count_hit=True)
        for c, rows in tables.items():
            self._rows.peek(("rows", c), max(rows.stamps), count_hit=True)
        clock = time.perf_counter
        if len(runs) > 1:
            t, x, y = t[order], x[order], y[order]
        values = np.empty(n)  # in run order
        support = np.ones(n, dtype=np.int64)
        procs = iter(covers)
        for c, s, stamp, lo, hi in runs:
            if not stamp:
                values[lo:hi], support[lo:hi] = np.nan, 0
                self._scan_rows(
                    c, tables[c], x[lo:hi], y[lo:hi], values[lo:hi], support[lo:hi]
                )
                continue
            proc = next(procs)[2]
            t0 = clock()
            values[lo:hi] = proc.cover.predict_batch(t[lo:hi], x[lo:hi], y[lo:hi])
            elapsed = clock() - t0
            # PlanExecutor._observe's report for a cover op.
            units = float(max(router.shard_window_sketch(s, c).n_rows, 1))
            router.load.record_scan(s, hi - lo, units * (hi - lo), elapsed)
        if len(runs) > 1:
            values[order] = values.copy()  # back to stream order
            support[order] = support.copy()
        with self._lane_lock:
            self._lane_hits["route"] += 1
        return BatchResult(batch, values, support, answered=support > 0)

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
