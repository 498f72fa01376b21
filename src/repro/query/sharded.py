"""Region-sharded scatter-gather query execution.

:class:`ShardedQueryEngine` answers the three request shapes of the web
interface — point queries, continuous streams, heatmap grids — against
a :class:`~repro.storage.shards.ShardRouter` holding one shard column
per geographic region.  It is the one query engine: an unsharded store
is a one-region router (:func:`~repro.storage.shards.single_shard_router`).

It serves the paper's two answers (:data:`SHARDED_METHODS`).  A
``naive`` request — the exact answer from raw tuples — is compiled
against a pinned :class:`~repro.query.pipeline.binding.RouterBinding`
into a **merge-shaped** plan — per-(window, shard) radius scans plus
the exact partition-independent blocked gather of
:mod:`repro.query.pipeline.gather`, answers byte-identical at any shard
count — that the shared
:class:`~repro.query.pipeline.executor.PlanExecutor` runs.  A
``model-cover`` request is answered by the engine's **lanes**
(:meth:`ShardedQueryEngine.cached_point`,
:meth:`ShardedQueryEngine.cached_route`), the one model-cover path:
each (window, owner shard) the queries fall in is answered from the
owner slice's cover, or — when that slice is empty — from the window's
rows with the exact gather's tile and reduce.  On the event loop the
lanes read only what is cached at the live stamps and decline the rest;
given a pinned binding they fit, merge and fault in what is missing and
never decline.  Covers and window rows live in epoch-keyed
:class:`~repro.query.pipeline.cache.ProcessorCache` s (stamped with
shard window *content epochs*, so ingest invalidates exactly what it
touched).

The index kinds of :mod:`repro.query.indexed` answer byte-identically
to ``naive`` and only slower, so they are per-window processors (the
paper's Fig. 6a), not served methods.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.adkmn import AdKMNConfig, fit_adkmn
from repro.core.cover import ModelCover, predict_runs
from repro.data.tuples import QueryTuple
from repro.geo.coords import BoundingBox
from repro.obs import Counters, Metrics
from repro.query.base import BatchResult, QueryBatch, QueryResult
from repro.query.modelcover import ModelCoverProcessor
from repro.query.pipeline.binding import RouterBinding
from repro.query.pipeline.cache import CACHE_COUNTS, ProcessorCache
from repro.query.pipeline.gather import (
    BLOCK_CELLS,
    merged_rows,
    reduce_row_block,
    scan_tile,
)
from repro.query.pipeline.executor import PlanExecutor, build_sharded_plan
from repro.query.pipeline.plan import (
    CoverRun,
    ExecutionPlan,
    PlanContext,
    PlanReport,
)
from repro.storage.shards import ShardRouter, StaleLayoutError

#: The paper's two answers: exact from raw tuples, and model cover.
SHARDED_METHODS = ("naive", "model-cover")


def check_method(method: str) -> str:
    """``method`` if the engine serves it, else the ``ValueError`` every
    surface that takes a method refuses it with."""
    if method not in SHARDED_METHODS:
        raise ValueError(f"unknown method {method!r}; known: {SHARDED_METHODS}")
    return method

#: The most rows :meth:`ShardedQueryEngine.cached_route` answers on the
#: event loop.  The loop is where every other connection waits for it,
#: and its cost grows with the rows — mostly in evaluating the covers
#: and writing the readings' floats — while what it saves (the executor
#: hop) does not.  At 128 rows an answer holds the loop ~0.45 ms (p95
#: ~0.8 ms, about a live-mix request's p95 round trip) and saves ~24 %
#: of the request; at 256 it would hold it ~1 ms.  Longer routes take
#: the executor (docs/architecture.md, "The row cap").
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
    the ``("rows", c)`` entry the lanes answer an empty owner slice
    from, with the tile and reduce the exact gather runs."""

    #: Each shard's slice stamp in the state the rows are of (index =
    #: shard); 0 where the slice was empty.
    stamps: Tuple[int, ...]
    #: Each shard's rows among them (index = shard).
    counts: Tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray


def window_rows(cache: ProcessorCache, binding, c: int) -> WindowRows:
    """Window ``c``'s rows over every shard of ``binding`` from
    ``cache``, stored under ``("rows", c)`` at the largest of the pinned
    slices' stamps — the epoch of the last ingest that reached the
    window, so the stamp names its content — and merged outside the
    cache lock on a miss.  Every slice of the window is pinned (on a
    segment store, a sealed one is faulted in)."""
    bounds = [binding.slice_for(s, c) for s in range(binding.n_shards)]
    stamps = tuple(stamp for stamp, _sub, _gids in bounds)

    def build() -> WindowRows:
        counts = tuple(len(gids) for *_, gids in bounds)
        return WindowRows(stamps, counts, *merged_rows(bounds))

    return cache.get_or_build(("rows", c), max(stamps), build)


def cover_runs(windows: np.ndarray, owners: np.ndarray, n_shards: int):
    """``(order, runs)`` of a model-cover request whose queries lie in
    ``windows`` and are owned by shards ``owners``: one stable sort on
    the (window, owner) key makes each pair's queries a run of
    ``order``, in stream order and window-major; ``runs`` are its
    ``(window, owner, first, end)``."""
    pair = windows * n_shards + owners
    order = pair.argsort(kind="stable")
    pair = pair[order]
    firsts = [0, *((pair[1:] != pair[:-1]).nonzero()[0] + 1).tolist()]
    ends = firsts[1:] + [len(pair)]
    return order, [
        (*divmod(key, n_shards), lo, hi)
        for key, lo, hi in zip(pair[firsts].tolist(), firsts, ends)
    ]


class ShardedQueryEngine:
    """Scatter-gather query engine over a region-sharded tuple store.

    Given ``processes=N``, the engine owns a pool of N worker processes
    (:attr:`pool`, a
    :class:`~repro.query.pipeline.parallel.ProcessPlanExecutor`) that
    runs the exact plans of the three request modes —
    :meth:`continuous_query_batch`, :meth:`point_query`,
    :meth:`heatmap_grid` — byte-identically; without it, and for
    :meth:`execute` always, exact plans run their blocked gather in the
    calling thread.  ``model-cover`` requests are answered by
    :meth:`cached_point` and :meth:`cached_route`, in the calling thread
    too.  :meth:`close` stops the pool.

    :attr:`metrics` is the engine's one counter registry: its caches,
    its pool, the subscription registry and the service over it all
    count into its blocks (``cache``, ``rows_cache``, ``prune``,
    ``lane_hits``, ``lane_declines``, ``layout_repins``,
    ``pool_fallbacks``, ``pool_respawns``, ``subscriptions``, ``served``,
    ``ingest_rejects``; ``tier``, read from a tiered router at scrape
    time).
    """

    DEFAULT_CACHE_CAPACITY = 128

    def __init__(
        self,
        router: ShardRouter,
        radius_m: float = 1000.0,
        config: Optional[AdKMNConfig] = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        processes: Optional[int] = None,
    ) -> None:
        if radius_m < 0:
            raise ValueError("radius must be non-negative")
        self.router = router
        self.radius_m = radius_m
        self.metrics = Metrics()
        self._prune = self.metrics.block("prune", ("plans", "ops_pruned", "ops_kept"))
        self._repins = self.metrics.block("layout_repins")
        if hasattr(router, "tier_stats"):
            self.metrics.read("tier", router.tier_stats)
        self.config = config or AdKMNConfig()
        # The one epoch-keyed bounded LRU for cover processors, keyed
        # per (shard, window) and stamped with the shard slice's
        # *content epoch* (:meth:`ShardRouter.shard_window_epoch`):
        # ingest that lands tuples in a shard's slice of an open global
        # window advances the stamp, so entries built on a partial
        # window are never served after further ingest, while sealed
        # windows keep their frozen stamps — and their cache hits.
        # Stamps are always read *before* the slice they stamp (the
        # binding's coherent snapshot_window read), so a racing ingest
        # can only make an entry key conservatively old, never serve a
        # stale processor under a fresh stamp.
        self._cache = ProcessorCache(
            cache_capacity, self.metrics.block("cache", CACHE_COUNTS)
        )
        # Window rows for the lanes (``window_rows``) live in their own
        # epoch-keyed store: one entry per state of a window an empty
        # owner was answered in, cheap to rebuild, would otherwise
        # compete with the covers for LRU slots and push fitted
        # covers out.
        self._rows = ProcessorCache(
            cache_capacity, self.metrics.block("rows_cache", CACHE_COUNTS)
        )
        # The event-loop lanes' answers by lane, and declines by (lane,
        # reason): one request that asked, one bump.
        self._lane_hits = self.metrics.block("lane_hits")
        self._lane_declines = self.metrics.block("lane_declines")
        #: The worker pool the request modes' exact plans run on, or None.
        #: Imported only here: an engine without one never loads
        #: multiprocessing or the shared-memory exports.
        self.pool = None
        if processes is not None:
            from repro.query.pipeline.parallel import ProcessPlanExecutor

            self.pool = ProcessPlanExecutor(self, processes=processes)

    # -- lifecycle ---------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    @property
    def cache_stats(self) -> Counters:
        """The processor cache's ``cache`` block (live)."""
        return self._cache.stats

    @property
    def processor_cache(self) -> ProcessorCache:
        """The engine's epoch-keyed processor/plan cache."""
        return self._cache

    @property
    def rows_cache(self) -> ProcessorCache:
        """The ``("rows", c)`` entries the lanes answer empty owner
        slices from (:func:`window_rows`), counted in ``rows_cache``."""
        return self._rows

    @property
    def prune_stats(self) -> Counters:
        """The ``prune`` block: plans built, and their ops pruned and
        kept, cumulative."""
        return self._prune

    def close(self) -> None:
        """Stop the pool's workers and unlink its shared-memory exports;
        without a pool there is nothing to release."""
        if self.pool is not None:
            self.pool.close()

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
        prune: bool = True,
        binding: Optional[RouterBinding] = None,
    ) -> ExecutionPlan:
        """Compile a query stream against a freshly pinned binding.

        ``prune=False`` compiles the full scatter instead of the pruned
        plan (byte-identical answers; the pruning benchmark's baseline);
        ``binding`` reuses an externally pinned snapshot (the
        subscription maintenance path) instead of pinning a fresh one.
        A ``model-cover`` plan is the binding, the queries and the
        method, with no ops: :meth:`execute` answers it through
        :meth:`cached_route`.

        When the engine pins the binding itself, a rebalance racing the
        build (:class:`~repro.storage.shards.StaleLayoutError`) is
        retried against a fresh binding, counted in ``layout_repins`` —
        rebalances are rare, so the loop terminates in practice after
        one retry.  Externally pinned
        bindings propagate the error: the caller owns the snapshot and
        must decide how to re-pin.
        """
        check_method(method)
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
                    prune=prune,
                )
                break
            except StaleLayoutError:
                if binding is not None or attempt == attempts - 1:
                    raise
                self._repins.bump("plan")
        self._prune.bump_all(plans=1, ops_pruned=plan.ops_pruned, ops_kept=plan.ops_kept)
        return plan

    def execute(
        self, plan: ExecutionPlan, report: Optional[PlanReport] = None
    ) -> BatchResult:
        """Run a compiled plan: a ``naive`` one through the shared
        executor, which feeds per-op scan load to the router's tracker
        (the adaptive rebalancer sees read skew, not just ingest skew);
        a ``model-cover`` one through :meth:`cached_route` at the plan's
        binding, its runs listed in ``report``."""
        if plan.merge is not None:
            executor = PlanExecutor(self.radius_m, load=self.router.load.record_scan)
            return executor.execute(plan, report)
        start = time.perf_counter()
        result = self.cached_route(plan.queries, plan.method, plan.binding, report)
        if report is not None:
            report.total_s += time.perf_counter() - start
        return result

    # -- the three web-interface modes -------------------------------------

    def continuous_query_batch(
        self,
        queries: Sequence[QueryTuple] | QueryBatch,
        method: str = "naive",
    ) -> BatchResult:
        """Columnar continuous-query mode, results in stream order; an
        exact plan runs on the pool when the engine has one."""
        check_method(method)
        batch = (
            queries
            if isinstance(queries, QueryBatch)
            else QueryBatch.from_queries(queries)
        )
        if not len(batch):
            return BatchResult(
                batch, np.empty(0), np.empty(0, dtype=np.int64)
            )
        for attempt in range(3):
            try:
                return (self.pool or self).execute(self.plan(batch, method))
            except StaleLayoutError:
                # A model-cover plan pins its slices as it runs: a
                # re-cut since its binding was pinned re-pins, as a
                # re-cut during an exact plan's build does.
                if attempt == 2:
                    raise
                self._repins.bump("continuous_query_batch")

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
        entries the lanes answer from, fitted into the cache on a miss,
        over one pinned binding."""
        binding = self.binding()
        c = int(binding.windows_for_times((t,))[0])
        bounds = [binding.slice_for(s, c) for s in range(binding.n_shards)]
        return [
            cached_cover(self._cache, self.config, s, c, bound).cover
            for s, bound in enumerate(bounds)
            if len(bound[1])
        ]

    # -- the model-cover lanes ---------------------------------------------

    def _lane_decline(self, lane: str, reason: str) -> None:
        """Count a declined lane request; ``None`` is the lane's answer."""
        self._lane_declines.bump((lane, reason))

    def _owner_rows(self, runs, n_shards: int, binding) -> Optional[Dict[int, WindowRows]]:
        """The ``("rows", c)`` entries the empty owners of ``runs`` are
        answered from, by window, or ``None`` — the loop's
        ``"fallback"`` decline.

        ``runs`` are the ``(window, owner, stamp, first, end)`` a lane
        read, a stamp of 0 for an empty owner.  With a pinned
        ``binding``, :func:`window_rows` builds what is missing.
        Without one (the event loop), lock-free reads of every such
        window's live shard stamps, then one peek of all their entries,
        each at its window's largest stamp.  An entry must hold the
        state those stamps name, and each of the window's runs must have
        read the entry's stamp for its owner — a cover read before an
        ingest the later reads saw, or an owner that gained rows in
        between, is a torn read.  And the empty owners' queries over
        their windows' rows must make at most :data:`BLOCK_CELLS` cells
        in all, the exact gather's block, so a loop request holds the
        loop no longer than one block of a plan does.
        """
        queries: Dict[int, int] = {}  # per window, its empty owners' queries
        for c, _s, stamp, lo, hi in runs:
            if not stamp:
                queries[c] = queries.get(c, 0) + hi - lo
        if binding is not None:
            return {c: window_rows(self._rows, binding, c) for c in queries}
        if not queries:
            return {}
        epoch = self.router.shard_window_epoch
        live = {c: tuple(epoch(s, c) for s in range(n_shards)) for c in queries}
        found = self._rows.peek_all([(("rows", c), max(stamps)) for c, stamps in live.items()])
        tables: Dict[int, WindowRows] = {}
        cells = 0
        for (c, stamps), rows in zip(live.items(), found):
            if rows is None or rows.stamps != stamps:
                return None
            if any(stamps[s] != read for w, s, read, *_ in runs if w == c):
                return None
            tables[c] = rows
            cells += queries[c] * len(rows.s)
        return tables if cells <= BLOCK_CELLS else None

    def _scan_rows(self, rows: WindowRows, qx, qy, values, support, charges: list) -> float:
        """Answer queries ``(qx, qy)`` over a window's ``rows`` into
        ``values`` / ``support`` (NaN / 0 where nothing is in range):
        the exact gather's tile and by-construction reduce, in query
        blocks of at most :data:`BLOCK_CELLS` cells, so the bytes are
        the exact gather's.  Each shard with rows is charged — appended
        to ``charges`` as ``(shard, queries, units, seconds)`` for the
        load tracker — as scanned by every query, its share of the
        seconds by rows, as a naive scan op is.  Returns the seconds."""
        n = len(qx)
        step = max(BLOCK_CELLS // max(len(rows.s), 1), 1)
        t0 = time.perf_counter()
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            flat = scan_tile(rows.x, rows.y, qx[lo:hi], qy[lo:hi], self.radius_m)
            reduce_row_block(flat, rows.s, np.arange(lo, hi), values, support)
        elapsed = time.perf_counter() - t0
        for s, n_rows in enumerate(rows.counts):
            if n_rows:
                charges.append((s, n, float(n_rows * n), elapsed * n_rows / len(rows.s)))
        return elapsed

    def cached_point(
        self, t: float, x: float, y: float, method: str = "naive"
    ) -> Optional[QueryResult]:
        """The event-loop lane for one point: the ``model-cover`` answer
        when the owner slice's cover is cached at its live stamp — or,
        for an empty owner slice, its window's rows
        (:meth:`_owner_rows`) — else ``None`` (ask :meth:`point_query`),
        counted in ``lane_declines`` with no cache counter touched.

        Only lock-free router reads: it never waits on an ingest or a
        seal, faults a segment in or fits.  A cover cached at ``stamp``
        was fitted on exactly the rows the stamp names, so a hit is what
        the pinned path answers now.  It is computed on Python floats —
        ``window_for_time``, ``shard_of``, then ``process`` — which tests
        hold bitwise equal to the pinned path's 1-row arrays.  A re-cut
        publishes its stamp tables before its grid and holds the router
        lock until both are out, so a hit is of one layout iff the grid
        read first is still live after the probe.  A cover evaluation is
        charged to the load tracker as the cover's models (O) units.
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
        if stamp:
            proc = self._cache.peek(("cover", s, c), stamp, count_hit=True)
            if proc is None:
                return self._lane_decline("point", "cover")
        else:
            tables = self._owner_rows([(c, s, 0, 0, 1)], grid.n_regions, None)
            if tables is None:
                return self._lane_decline("point", "fallback")
        if router.grid is not grid:
            return self._lane_decline("point", "recut")
        if stamp:
            t0 = time.perf_counter()
            result = proc.process(QueryTuple(t, x, y))
            router.load.record_scan(s, 1, float(proc.size), time.perf_counter() - t0)
        else:
            rows = tables[c]
            self._rows.peek(("rows", c), max(rows.stamps), count_hit=True)
            values, support = np.full(1, np.nan), np.zeros(1, dtype=np.int64)
            charges: list = []
            self._scan_rows(rows, np.array([x]), np.array([y]), values, support, charges)
            router.load.record_scans(charges)
            value = float(values[0]) if support[0] else None
            result = QueryResult(QueryTuple(t, x, y), value, int(support[0]))
        self._lane_hits.bump("point")
        return result

    def cached_route(
        self,
        batch: QueryBatch,
        method: str = "naive",
        binding: Optional[RouterBinding] = None,
        report: Optional[PlanReport] = None,
    ) -> Optional[BatchResult]:
        """The ``model-cover`` answer to a query stream — the one
        model-cover path — grouped by :func:`cover_runs` into (window,
        owner) runs: every run whose owner slice has rows is answered
        from that slice's cover in one pass over them all
        (:func:`~repro.core.cover.predict_runs`); a run of an empty
        owner from the exact gather's tile and reduce over the window's
        rows (:meth:`_scan_rows`).  Every run is charged to the load
        tracker in one call: a cover run its cover's models (O) per
        query and its share, by queries, of the pass's seconds.

        With a pinned ``binding`` (the executor, subscriptions, the
        protocol's batches): the pinned slices and stamps; a missing
        cover is fitted (:func:`cached_cover`) and a window's missing
        rows merged (:func:`window_rows`); nothing is declined, and each
        run is listed, timed, in ``report``.

        Without one (the event loop), :meth:`cached_point`'s rules: live
        stamps and only what is cached at them — every cover looked up
        in one section of the cache's lock, their hits (and the window
        rows') counted in one more once everything is found — and
        ``None`` counted in ``lane_declines`` for another method,
        more than :data:`CACHED_ROUTE_MAX_ROWS` rows, an empty batch or
        router, a non-finite input, an empty owner :meth:`_owner_rows`
        cannot answer (``"fallback"``), a missing or stale cover, or a
        re-cut in flight.  A declined route counts and charges nothing.
        """
        router = self.router
        n = len(batch)
        t, x, y = batch.t, batch.x, batch.y
        if binding is not None:
            if method != "model-cover":
                raise ValueError(f"the lanes answer model-cover, not {method!r}")
            if not n:
                return BatchResult(batch, np.empty(0), np.empty(0, dtype=np.int64))
            source = binding
        else:
            if method != "model-cover":
                return self._lane_decline("route", "method")
            if n > CACHED_ROUTE_MAX_ROWS:
                return self._lane_decline("route", "rows")
            if not n or not router.global_count():
                return self._lane_decline("route", "empty")
            if not np.isfinite((t, x, y)).all():
                return self._lane_decline("route", "non-finite")
            source = router
        grid = source.grid
        n_shards = grid.n_regions
        order, groups = cover_runs(source.windows_for_times(t), grid.shards_of(x, y), n_shards)
        cache = self._cache
        if binding is not None:
            bounds = [binding.slice_for(s, c) for c, s, _lo, _hi in groups]
            runs = [(c, s, bound[0], lo, hi) for (c, s, lo, hi), bound in zip(groups, bounds)]
            tables = self._owner_rows(runs, n_shards, binding)
            procs = [
                cached_cover(cache, self.config, s, c, bound)
                for (c, s, stamp, _lo, _hi), bound in zip(runs, bounds)
                if stamp
            ]
        else:
            epoch = router.shard_window_epoch
            runs = [(c, s, epoch(s, c), lo, hi) for c, s, lo, hi in groups]
            tables = self._owner_rows(runs, n_shards, None)
            if tables is None:
                return self._lane_decline("route", "fallback")
            keys = [(("cover", s, c), stamp) for c, s, stamp, _lo, _hi in runs if stamp]
            procs = cache.peek_all(keys)
            if any(proc is None for proc in procs):
                return self._lane_decline("route", "cover")
            if router.grid is not grid:
                return self._lane_decline("route", "recut")
            # A hit per cover and per window's rows, as the pinned
            # path's lookups count them, once everything is known
            # cached: a declined route counts nothing.
            cache.count_hits(keys)
            if tables:
                self._rows.count_hits(
                    [(("rows", c), max(rows.stamps)) for c, rows in tables.items()]
                )
        if len(runs) > 1:
            t, x, y = t[order], x[order], y[order]
        values = np.empty(n)  # in run order
        covered = [run for run in runs if run[2]]  # the runs procs answer, in order
        spans = [(lo, hi) for *_, lo, hi in covered]
        clock = time.perf_counter
        start = clock()
        predict_runs([proc.cover for proc in procs], spans, t, x, y, values)
        per_query = (clock() - start) / max(sum(hi - lo for lo, hi in spans), 1)
        charges = [
            (s, hi - lo, float(proc.size * (hi - lo)), per_query * (hi - lo))
            for (_c, s, _stamp, lo, hi), proc in zip(covered, procs)
        ]
        seconds = {}  # an empty owner's run's, by its first query
        support = None
        if tables:
            support = np.ones(n, dtype=np.int64)
            for c, _s, stamp, lo, hi in runs:
                if not stamp:
                    values[lo:hi], support[lo:hi] = np.nan, 0
                    seconds[lo] = self._scan_rows(
                        tables[c], x[lo:hi], y[lo:hi], values[lo:hi], support[lo:hi], charges
                    )
        router.load.record_scans(charges)
        if report is not None and binding is not None:
            for (c, s, stamp, lo, hi), bound in zip(runs, bounds):
                n_rows = len(bound[1]) if stamp else len(tables[c].s)
                run = CoverRun(
                    "cover" if stamp else "rows", PlanContext(c, s, stamp, n_rows), hi - lo
                )
                report.runs.append(run)
                report.record(run, per_query * (hi - lo) if stamp else seconds[lo])
        if len(runs) > 1:  # back to stream order
            values[order] = values.copy()
            if support is not None:
                support[order] = support.copy()
        if binding is None:
            self._lane_hits.bump("route")
        if support is None:  # every query answered by a cover
            support = np.ones(n, dtype=np.int64)
            return BatchResult._of_columns(batch, values, support, support.astype(bool))
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
