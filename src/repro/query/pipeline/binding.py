"""Snapshot bindings: one pinned storage view per plan.

A plan is built against — and executed against — exactly one
:class:`SnapshotBinding`.  The binding resolves ``(shard, window)`` to a
coherent ``(content stamp, window slice, gid slice)`` triple and
**memoises** every resolution, so the plan builder and the executor are
guaranteed to see the very same rows even while a writer ingests
concurrently: the first read pins the triple, every later read (from any
pool thread) returns the pinned one.  Two bindings implement it: the
sharded engine's :class:`RouterBinding` and the server's
:class:`ServerSnapshotBinding` over a pinned
:class:`~repro.storage.engine.StorageSnapshot`.

Bindings are cheap, request-scoped objects — build one per request, let
it die with the plan.  They hold zero-copy views only.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.storage.engine import StorageSnapshot
from repro.storage.shards import ShardRouter, StaleLayoutError
from repro.storage.sketch import WindowSketch

#: What a binding resolves a (shard, window) to: the slice's content
#: stamp, the pinned zero-copy slice, and — on sharded bindings — the
#: global stream positions aligned with the slice's rows (None on a
#: server snapshot).
BoundSlice = Tuple[int, TupleBatch, Optional[np.ndarray]]


class SnapshotBinding(Protocol):
    """Uniform pinned-storage access for plan building and execution."""

    n_shards: int

    def stream_rows(self) -> int:
        """Total stream rows behind the binding (the merge stride)."""
        ...

    def windows_for_times(self, ts) -> np.ndarray:
        """Window index responsible for each query timestamp."""
        ...

    def slice_for(self, shard: Optional[int], c: int) -> BoundSlice:
        """Pinned ``(stamp, slice, gids)`` of window ``c`` (per shard)."""
        ...

    def sketch_for(self, shard: Optional[int], c: int) -> WindowSketch:
        """Zone-map sketch covering exactly the pinned slice's rows."""
        ...

    def peek(self, shard: Optional[int], c: int) -> Tuple[int, int]:
        """Cheap ``(stamp, n_rows)`` estimate for a slice, without pinning.

        Display-only: feeds the plan's pruned-op records for candidates
        dropped on pure geometry, where resolving (and memoising) the
        slice would defeat the point — pruned planning touches only the
        relevant shards.  Already-pinned slices report their pinned
        values.
        """
        ...

    def peek_window(self, c: int) -> List[Tuple[int, int]]:
        """:meth:`peek` for every shard of window ``c`` in one call
        (index = shard) — the pruning pass reads one window's worth of
        display estimates at a time."""
        ...


class _MemoBinding:
    """Shared memoisation: the first resolution pins, later ones replay.

    Sketches are memoised alongside slices under the same lock, and a
    subclass's ``_resolve`` may pre-fill ``self._sketches`` (the router
    binding does, from one coherent locked read), so a pruning decision
    and the scan it prunes can never see different rows.  Sketch
    resolution is lazy: plans that never prune (cover plans, the server
    path) pay nothing for it.
    """

    def __init__(self) -> None:
        self._memo: Dict[Tuple[Optional[int], int], BoundSlice] = {}
        self._sketches: Dict[Tuple[Optional[int], int], WindowSketch] = {}
        self._memo_lock = threading.Lock()

    def slice_for(self, shard: Optional[int], c: int) -> BoundSlice:
        key = (shard, int(c))
        with self._memo_lock:
            bound = self._memo.get(key)
            if bound is None:
                bound = self._resolve(shard, int(c))
                self._memo[key] = bound
            return bound

    def sketch_for(self, shard: Optional[int], c: int) -> WindowSketch:
        key = (shard, int(c))
        with self._memo_lock:
            sketch = self._sketches.get(key)
            if sketch is not None:
                return sketch
            bound = self._memo.get(key)
            if bound is None:
                bound = self._resolve(shard, int(c))
                self._memo[key] = bound
                sketch = self._sketches.get(key)  # _resolve may pre-fill
                if sketch is not None:
                    return sketch
            sketch = self._compute_sketch(shard, int(c), bound)
            self._sketches[key] = sketch
            return sketch

    def peek(self, shard: Optional[int], c: int) -> Tuple[int, int]:
        with self._memo_lock:
            bound = self._memo.get((shard, int(c)))
            if bound is not None:
                return bound[0], len(bound[1])
        # Single-slice bindings are pinned by construction, so resolving
        # is as cheap as any other read; the router binding overrides
        # this with an O(1) unpinned read.
        stamp, sub, _gids = self.slice_for(shard, int(c))
        return stamp, len(sub)

    def peek_window(self, c: int) -> List[Tuple[int, int]]:
        return [self.peek(s, int(c)) for s in range(self.n_shards)]

    def _resolve(self, shard: Optional[int], c: int) -> BoundSlice:
        raise NotImplementedError

    def _compute_sketch(
        self, shard: Optional[int], c: int, bound: BoundSlice
    ) -> WindowSketch:
        """Fallback sketch of an already-pinned slice.

        The pinned slice is immutable, so computing its exact sketch is
        always coherent; bindings with an O(1) maintained sketch
        override the resolution path instead.
        """
        return WindowSketch.of(bound[1])


class RouterBinding(_MemoBinding):
    """Sharded binding over a :class:`~repro.storage.shards.ShardRouter`.

    Each ``(shard, window)`` resolution is one coherent
    :meth:`ShardRouter.snapshot_window_sketch` read taken under the
    router lock — stamp, rows, gids and zone-map sketch can never tear —
    and the memo extends that coherence across the whole plan: build and
    execution, the pruning pass, and the exact fallback of a cover plan,
    all see the same pinned quadruples.
    """

    def __init__(self, router: ShardRouter) -> None:
        super().__init__()
        self.router = router
        self.n_shards = router.n_shards
        self.grid = router.grid
        # The shard layout this binding pinned.  Every *fresh* resolution
        # checks it against the live router: a split/merge re-cut between
        # binding time and resolution would otherwise mix two layouts in
        # one plan (the old grid's scatter geometry over the new layout's
        # rows — silently missing hits).  Already-memoised slices stay
        # valid forever; plan builders resolve every kept op at build
        # time, so executing a built plan never trips this.
        self.layout_epoch = router.layout_epoch

    def _check_layout(self) -> None:
        live = self.router.layout_epoch
        if live != self.layout_epoch:
            raise StaleLayoutError(
                f"binding pinned shard layout {self.layout_epoch}, "
                f"router has rebalanced to layout {live}"
            )

    def stream_rows(self) -> int:
        return self.router.global_count()

    def windows_for_times(self, ts) -> np.ndarray:
        return self.router.windows_for_times(ts)

    def sketch_for(self, shard: Optional[int], c: int) -> WindowSketch:
        # Sealed windows short-circuit: their sketches are frozen forever
        # and always resident on the router, so a pruning decision needs
        # no slice resolution at all.  On the durable tier that is what
        # keeps pruning from faulting a cold window in just to skip it;
        # superset safety is trivial (frozen sketch ≡ the slice's exact
        # sketch, permanently).  Open windows fall through to the pinned
        # path, which resolves slice and sketch under one router lock.
        key = (shard, int(c))
        with self._memo_lock:
            sketch = self._sketches.get(key)
            if sketch is not None:
                return sketch
            if key not in self._memo:
                # Layout check before trusting an unpinned frozen read: a
                # post-rebalance sketch describes the *new* layout's rows
                # and could wrongly prune an old-layout plan.
                self._check_layout()
                frozen = self.router.frozen_window_sketch(shard, int(c))
                if frozen is not None:
                    self._sketches[key] = frozen
                    return frozen
        return super().sketch_for(shard, c)

    def _resolve(self, shard: Optional[int], c: int) -> BoundSlice:
        if shard is None:
            raise ValueError("sharded binding needs an explicit shard index")
        self._check_layout()
        # One locked read pins slice *and* zone map together (the
        # router maintains the sketch incrementally, so this is O(1));
        # the sketch memo is pre-filled here so pruning can never
        # consult a sketch from a different instant than the slice the
        # pruned scan would have read.
        stamp, sub, gids, sketch = self.router.snapshot_window_sketch(shard, c)
        self._sketches[(shard, int(c))] = sketch
        return stamp, sub, gids

    def peek(self, shard: Optional[int], c: int) -> Tuple[int, int]:
        # O(1) and lock-free: the incrementally-maintained sketch counts
        # the slice's rows, so a geometry-pruned candidate costs no
        # slice materialisation at all.  The pair may tear under a
        # concurrent ingest, and the memo probe races pinning — both
        # fine for a display estimate; nothing correctness-bearing
        # reads it (geometry pruning is data-independent, and the
        # sketch layer pins via sketch_for).
        bound = self._memo.get((shard, int(c)))
        if bound is not None:
            return bound[0], len(bound[1])
        sketch = self.router.shard_window_sketch(shard, int(c))
        return self.router.shard_window_epoch(shard, int(c)), sketch.n_rows

    def peek_window(self, c: int) -> List[Tuple[int, int]]:
        c = int(c)
        # window_stats rows carry a third read-epoch field for display
        # consumers (the CLI shards table); the binding protocol's peek
        # pairs stay (stamp, n_rows).
        stats = self.router.window_stats(c)
        memo = self._memo
        return [
            (bound[0], len(bound[1])) if (bound := memo.get((s, c))) is not None
            else stats[s][:2]
            for s in range(self.n_shards)
        ]


class ServerSnapshotBinding(_MemoBinding):
    """Binding over a server's pinned epoch-stamped storage snapshot."""

    n_shards = 1

    def __init__(self, snapshot: StorageSnapshot) -> None:
        super().__init__()
        self.snapshot = snapshot

    def stream_rows(self) -> int:
        return len(self.snapshot)

    def windows_for_times(self, ts) -> np.ndarray:
        return self.snapshot.windows_for_times(ts)

    def _resolve(self, shard: Optional[int], c: int) -> BoundSlice:
        return self.snapshot.window_epoch(c), self.snapshot.window(c), None
