"""The snapshot binding: one pinned storage view per plan.

A plan is built against — and executed against — exactly one
:class:`RouterBinding`.  It is an exact snapshot of the router: at
construction it reads ``(epoch E, global rows N)`` under the router
lock, and every ``(shard, window)`` it resolves is that slice's content
*at E* — the rows with a gid below ``N`` — whatever a writer ingested
since.  Each resolution is **memoised**, so the plan builder and the
executor see the very same rows: the first read pins the triple, every
later read (from any pool thread) returns the pinned one.

Bindings are cheap, request-scoped objects — build one per request, let
it die with the plan.  They hold zero-copy views only.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.storage.shards import ShardRouter, StaleLayoutError
from repro.storage.sketch import WindowSketch

#: What a binding resolves a (shard, window) to: the slice's content
#: stamp, the pinned zero-copy slice, and the global stream positions
#: aligned with the slice's rows.
BoundSlice = Tuple[int, TupleBatch, np.ndarray]


class SnapshotBinding(Protocol):
    """Pinned-storage access for plan building and execution (the
    engine's :class:`RouterBinding`, or a worker process's view of the
    same pinned slices)."""

    n_shards: int

    def stream_rows(self) -> int:
        """Total stream rows behind the binding (the merge stride)."""
        ...

    def windows_for_times(self, ts) -> np.ndarray:
        """Window index responsible for each query timestamp."""
        ...

    def slice_for(self, shard: int, c: int) -> BoundSlice:
        """Pinned ``(stamp, slice, gids)`` of shard ``shard``'s part of
        window ``c``."""
        ...

    def sketch_for(self, shard: int, c: int) -> WindowSketch:
        """Zone-map sketch covering at least the pinned slice's rows."""
        ...

    def peek(self, shard: int, c: int) -> Tuple[int, int]:
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


class RouterBinding:
    """Exact snapshot of a :class:`~repro.storage.shards.ShardRouter`.

    The pin rule: ``(epoch, rows, layout_epoch)`` are read together
    under the router lock when the binding is built
    (:meth:`ShardRouter.head`).  Then

    * :meth:`windows_for_times` searches only the windows started within
      the first ``rows`` tuples;
    * each ``(shard, window)`` resolution is one coherent
      :meth:`ShardRouter.snapshot_window_sketch` read under the router
      lock — stamp, rows, gids and zone-map sketch can never tear.  A
      slice whose live stamp is newer than ``epoch`` gained rows after
      the pin: it is cut to its gids below ``rows`` (gids ascend within
      a shard slice) and stamped ``epoch`` — or 0 when the cut leaves
      it empty, as the router stamps an empty slice.  The content of a
      slice at one epoch is unique, so a cover cached under that stamp
      is a cover of exactly these rows, and
      :meth:`~repro.query.pipeline.cache.ProcessorCache.insert` never
      moves a key backwards past a fresher entry;
    * the memo extends that to the whole request: build and execution,
      the pruning pass, and the route lane's covers and window rows all
      see the same pinned slices.

    So every answer a plan gives is the answer over the stream's first
    ``rows`` tuples, the state the router held at ``epoch``.
    """

    def __init__(self, router: ShardRouter) -> None:
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
        self.epoch, self.rows, self.layout_epoch = router.head()
        # Windows sealed at the pin: their sketches are frozen forever.
        self._sealed = self.rows // router.h
        # Memo entries are written once, with ``setdefault``: threads
        # racing on a fresh slice may both read it, and all of them
        # return the one that landed first — no lock on any read.
        self._memo: Dict[Tuple[int, int], BoundSlice] = {}
        self._sketches: Dict[Tuple[int, int], WindowSketch] = {}

    def _check_layout(self) -> None:
        live = self.router.layout_epoch
        if live != self.layout_epoch:
            raise StaleLayoutError(
                f"binding pinned shard layout {self.layout_epoch}, "
                f"router has rebalanced to layout {live}"
            )

    def stream_rows(self) -> int:
        return self.rows

    def windows_for_times(self, ts) -> np.ndarray:
        # The window search over only the windows started within the
        # pinned rows: first-tuple times ascend, so that search is the
        # live one clamped to the pin's last window.
        if not self.rows:
            raise RuntimeError("router has no data")
        last = (self.rows - 1) // self.router.h
        return np.minimum(self.router.windows_for_times(ts), last)

    def slice_for(self, shard: int, c: int) -> BoundSlice:
        bound = self._memo.get((shard, c))
        if bound is None:
            c = int(c)
            bound = self._memo.setdefault((shard, c), self._resolve(shard, c))
        return bound

    def sketch_for(self, shard: int, c: int) -> WindowSketch:
        # Windows sealed at the pin short-circuit: their sketches are
        # frozen forever and always resident on the router, so a pruning
        # decision needs no slice resolution: two threads racing on one
        # key store the same frozen sketch.  On the durable tier that is
        # what keeps pruning from faulting a cold window in just to skip
        # it.  Other windows resolve slice and sketch under one router
        # lock — or, for a slice cut at the pin, compute the cut rows'
        # own sketch.
        sketch = self._sketches.get((shard, c))
        if sketch is not None:
            return sketch
        c = int(c)
        if c < self._sealed:
            # Layout check before trusting an unpinned frozen read: a
            # post-rebalance sketch describes the *new* layout's rows and
            # could wrongly prune an old-layout plan.
            if self.router.layout_epoch != self.layout_epoch:
                self._check_layout()
            return self._sketches.setdefault(
                (shard, c), self.router.shard_window_sketch(shard, c)
            )
        key = (shard, c)
        bound = self._memo.get(key)
        if bound is None:
            bound = self._memo.setdefault(key, self._resolve(shard, c))
            sketch = self._sketches.get(key)  # _resolve may pre-fill
            if sketch is not None:
                return sketch
        return self._sketches.setdefault(key, WindowSketch.of(bound[1]))

    def _resolve(self, shard: int, c: int) -> BoundSlice:
        """One locked read of the live slice, cut back to the pin.  Any
        two reads of one slice give the same rows — its content at the
        pin — so a racing duplicate changes no answer."""
        if self.router.layout_epoch != self.layout_epoch:
            self._check_layout()
        stamp, sub, gids, sketch = self.router.snapshot_window_sketch(shard, c)
        if stamp <= self.epoch:
            # Unchanged since the pin: the live sketch describes exactly
            # these rows, so pruning can never consult a sketch from a
            # different instant than the slice the pruned scan reads.
            self._sketches.setdefault((shard, c), sketch)
            return stamp, sub, gids
        keep = int(np.searchsorted(gids, self.rows))
        return (self.epoch if keep else 0), sub.slice(0, keep), gids[:keep]

    def peek(self, shard: int, c: int) -> Tuple[int, int]:
        # O(1) and lock-free: the incrementally-maintained sketch counts
        # the slice's rows, so a geometry-pruned candidate costs no
        # slice materialisation at all.  The pair is live, not pinned —
        # it may tear under a concurrent ingest, and the memo probe
        # races pinning — both fine for a display estimate or a
        # subscription's change mark; nothing that answers a query
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
