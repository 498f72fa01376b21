"""Reference plan builders: the per-(window, shard) Python loops.

These are the sharded plan builders exactly as they stood before the
vectorised pruning pass replaced them in
:mod:`repro.query.pipeline.executor` — one ``np.unique`` over the
windows, then a Python loop over every (window, shard) candidate.  They
are slow and obviously right, which is what a test oracle should be:
``tests/test_plan_builders.py`` requires the production builders to
write the same ops, the same pruned records in the same order, and to
make the same binding calls (as ``tests/reference_gather.py`` is the
oracle of the blocked gather).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

import numpy as np

from repro.query.base import QueryBatch
from repro.query.pipeline.binding import RouterBinding
from repro.query.pipeline.executor import _estimate
from repro.query.pipeline.plan import (
    CoverOp,
    ExecutionPlan,
    FallbackOp,
    MergeOp,
    PlanContext,
    PrunedOp,
    ScanOp,
)
from repro.query.pipeline.planner import PipelinePlanner


def reference_sharded_plan(
    binding: RouterBinding,
    queries: QueryBatch,
    method: str,
    planner: PipelinePlanner,
    radius_m: float,
    seed_cover: Optional[Callable[[int, int, int, object], None]] = None,
    want_estimates: bool = False,
    prune: bool = True,
) -> ExecutionPlan:
    """:func:`repro.query.pipeline.executor.build_sharded_plan`'s dispatch
    over the reference builders."""
    windows = binding.windows_for_times(queries.t)
    if method == "model-cover" or (
        method == "auto" and not planner.profile.needs_exact_average
    ):
        return _cover_plan(
            binding, queries, windows, planner, radius_m,
            allow_plan=method == "auto", seed_cover=seed_cover,
            want_estimates=want_estimates, prune=prune,
        )
    return _exact_plan(
        binding, queries, windows, method, planner, radius_m,
        want_estimates, prune=prune,
    )


def _exact_plan(
    binding: RouterBinding,
    queries: QueryBatch,
    windows: np.ndarray,
    method: str,
    planner: PipelinePlanner,
    radius_m: float,
    want_estimates: bool = False,
    prune: bool = True,
) -> ExecutionPlan:
    """Merge-shaped plan: per-(window, shard) hit scans + exact gather.

    The pruning pass (``prune=True``) cuts the O(shards x windows)
    fan-out down to the ops that can actually contribute hits, in three
    superset-safe layers:

    1. *window cuts* — a query only ever scatters into its responsible
       global window's ops (the per-window grouping below), so history
       windows a continuous stream never touches cost nothing;
    2. *grid geometry* — per query, only the shards inside the disk's
       cell-index rectangle (:meth:`RegionGrid.disks_shard_mask`, one
       vectorised evaluation per window group);
    3. *zone-map sketches* — the pinned slice's bounding box
       (:meth:`SnapshotBinding.sketch_for`, coherent with the slice by
       construction) must be within ``radius_m`` of the query point,
       which prunes shards whose geometric cell is reachable but whose
       actual rows cluster far from the query.

    A (shard, window) candidate left with zero queries is dropped from
    the plan entirely and recorded as a :class:`PrunedOp`.  Dropped
    scans are exactly those that would have produced an empty hit
    partial, and the exact gather orders hits canonically by stream
    position — so pruned and unpruned plans are byte-identical.
    ``prune=False`` is the full scatter: every window query reaches
    every non-empty shard slice (the benchmark baseline).
    """
    grid = binding.grid
    ops: List[ScanOp] = []
    pruned: List[PrunedOp] = []
    # One vectorised geometry evaluation for the whole batch; the window
    # loop below just rows into it.
    reach_all = grid.disks_shard_mask(queries.x, queries.y, radius_m) if prune else None
    for c in np.unique(windows):
        positions = np.flatnonzero(windows == c)
        wq = queries.take(positions)
        reach = reach_all[positions] if reach_all is not None else None
        if reach is None:
            candidates = range(binding.n_shards)
        else:
            # Geometry pruning is data-independent, so shards no query
            # disk can reach are dropped *before* their slices are ever
            # resolved — pruned planning, like pruned execution, touches
            # only the relevant shards.  One vectorised reduction per
            # window splits candidates from prunees; the records'
            # stamp/rows are unpinned O(1) peeks.
            reached = reach.any(axis=0)
            if not reached.all():
                stats = binding.peek_window(int(c))
                for s in np.flatnonzero(~reached):
                    stamp, n_rows = stats[s]
                    if n_rows:
                        pruned.append(
                            PrunedOp(
                                PlanContext(int(c), int(s), stamp, n_rows),
                                len(wq),
                                "region",
                            )
                        )
            candidates = np.flatnonzero(reached)
        for s in candidates:
            s = int(s)
            if reach is not None:
                # Sketch before slice: the sketch is resident (frozen for
                # sealed windows, pinned-with-slice for open ones), so a
                # fully pruned candidate never materialises its rows —
                # on the durable tier, never faults its segment in.  The
                # sketch counts the slice's rows exactly, so the empty
                # slice skip below is equivalent to the unpruned path's.
                sketch = binding.sketch_for(s, int(c))
                if sketch.is_empty:
                    continue
                mask = reach[:, s] & sketch.disk_overlaps(wq.x, wq.y, radius_m)
                if not mask.any():
                    stamp, n_rows = binding.peek(s, int(c))
                    pruned.append(
                        PrunedOp(
                            PlanContext(int(c), s, stamp, n_rows),
                            len(wq),
                            "sketch",
                        )
                    )
                    continue
                local = np.flatnonzero(mask)
            else:
                local = None
            stamp, sub, _gids = binding.slice_for(s, int(c))
            if not len(sub):
                continue
            if local is None:
                local = np.arange(len(wq), dtype=np.intp)
            chosen = method
            est = eval_est = None
            if chosen == "auto":
                chosen = planner.method_for(s, int(c), stamp, sub, exact=True)
                # Attach the verdict's own priced estimate (memoised by
                # method_for; a cheap peek) so the executor can feed this
                # op's observed timing back on the right unit axis.
                priced = planner.cached_estimates(s, int(c), stamp, True)
                if priced is not None and chosen in priced:
                    est = priced[chosen].per_query_cost
                    eval_est = planner.eval_units(priced[chosen])
            if est is None and want_estimates:
                est, eval_est = _estimate(
                    planner, sub, chosen, exact=True, shard=s, c=int(c), stamp=stamp
                )
            context = PlanContext(int(c), s, stamp, len(sub))
            ops.append(
                ScanOp(
                    context,
                    chosen,
                    positions[local],
                    wq.take(local),
                    est_unit_cost=est,
                    eval_unit_cost=eval_est,
                )
            )
    merge = MergeOp(len(queries), binding.stream_rows())
    return ExecutionPlan(
        binding, queries, tuple(ops), merge, method, pruned=tuple(pruned)
    )


def _cover_plan(
    binding: RouterBinding,
    queries: QueryBatch,
    windows: np.ndarray,
    planner: PipelinePlanner,
    radius_m: float,
    allow_plan: bool,
    seed_cover: Optional[Callable[[int, int, int, object], None]],
    want_estimates: bool = False,
    prune: bool = True,
) -> ExecutionPlan:
    """Owner-shard cover ops plus the exact fallback sub-plan.

    Queries whose owning shard has no tuples in the responsible window
    (or, with ``allow_plan``, whose owner's planner prefers a raw-data
    method) are collected into one :class:`FallbackOp` answered by the
    exact scatter-gather path instead.  Cover ops themselves are never
    pruned — a model answers regardless of distance to its training
    rows — but ``prune`` flows into the exact fallback sub-plan.
    """
    owners = binding.grid.shards_of(queries.x, queries.y)
    ops: List[Union[CoverOp, FallbackOp]] = []
    fallback: List[np.ndarray] = []
    for c in np.unique(windows):
        in_window = windows == c
        for s in np.unique(owners[in_window]):
            positions = np.flatnonzero(in_window & (owners == s))
            s, c = int(s), int(c)
            stamp, sub, _gids = binding.slice_for(s, c)
            if not len(sub):
                fallback.append(positions)
                continue
            if allow_plan:
                seeder = None
                if seed_cover is not None:
                    def seeder(proc, s=s, c=c, stamp=stamp):
                        seed_cover(s, c, stamp, proc)
                if (
                    planner.method_for(s, c, stamp, sub, exact=False, seed_cover=seeder)
                    != "model-cover"
                ):
                    fallback.append(positions)
                    continue
            est = eval_est = None
            if want_estimates:
                est, eval_est = _estimate(
                    planner, sub, "model-cover", exact=False, shard=s, c=c, stamp=stamp
                )
            ops.append(
                CoverOp(
                    PlanContext(c, s, stamp, len(sub)),
                    positions,
                    queries.take(positions),
                    est,
                    eval_est,
                )
            )
    if fallback:
        positions = np.concatenate(fallback)
        # From the auto path, keep the fallback on the per-shard planner
        # (exact mode) — identical answers, planned scans.
        exact_method = "auto" if allow_plan else "naive"
        sub_plan = _exact_plan(
            binding,
            queries.take(positions),
            windows[positions],
            exact_method,
            planner,
            radius_m,
            want_estimates,
            prune=prune,
        )
        ops.append(FallbackOp(positions, sub_plan))
    method = "auto" if allow_plan else "model-cover"
    return ExecutionPlan(binding, queries, tuple(ops), None, method)
