"""Standing subscriptions with epoch-delta maintenance (Query 1, standing).

The paper's Query 1 is a *standing* continuous query: a mobile object
registers a route once and receives pollution updates as data streams in
(Section 2.2).  This module adds that registration layer over the one
query engine: a :class:`SubscriptionRegistry` holds (route, interval,
method) standing queries, answers each once at registration, and
thereafter delivers *incremental* updates — only the
query tuples whose answers actually changed, found without re-executing
the untouched ones.

Maintenance is epoch-driven, in three pruning layers:

1. **Epoch gate** — a maintenance pass against a view whose ingest
   epoch and row count are unchanged is *quiet*: O(1), no
   per-subscription work at all.
2. **Window marks** — every window a subscription's query tuples map to
   is registered in an inverted index keyed by the window's *content
   stamp* (the per-window epochs of PR 4).  A pass compares each
   registered window's current ``(stamp, rows)`` mark against the one
   recorded when the stored answers were computed; only subscriptions
   referencing a changed window become candidates — O(distinct
   registered windows) per non-quiet pass, not O(subscriptions).
3. **Delta sketches** — for the *exact* method (naive scans), the
   rows appended to a dirty window since its recorded mark are
   summarised by a :class:`~repro.storage.sketch.WindowSketch` zone map
   (the PR 7 pruning machinery).  A query tuple whose radius disk
   provably cannot reach the delta's bounding box kept its answer
   bit-for-bit (the exact gather is purely spatial within the
   responsible window, and existing rows never change), so it is
   skipped without execution.  Model-cover answers depend on the whole
   window's fit, so any content change re-executes the window's tuples.

Dirty slices re-execute through the existing plan pipeline against one
pinned snapshot binding, so a maintenance subset's answers are
byte-identical to a from-scratch re-execution of the full batch (the
per-query exact merge and the per-point cover evaluation are both
independent of which other queries share the plan).  The replay-oracle suite in
``tests/test_subscriptions.py`` enforces exactly that, and
``benchmarks/bench_subscriptions.py`` gates the quiet-epoch cost.

Window assignment follows the repo's count-window convention
(:func:`repro.data.windows.windows_for_times` over a time-ordered
append-only stream): a query tuple's window can only change while it
maps to the open tail window (or while the engine is still empty).
Such subscriptions are tracked as *unstable* and re-assigned on every
non-quiet pass — stable subscriptions never pay assignment again.

Every pass pins the same thing: an ``(epoch, binding)`` pair over the
plan pipeline's one snapshot binding,
:class:`~repro.query.pipeline.binding.RouterBinding`, read by one view.
:class:`SubscriptionRegistry` holds the
:class:`~repro.query.sharded.ShardedQueryEngine` itself and runs its
plans through the engine's in-process ``execute`` — never its process
pool, when it owns one.  The one front end,
:class:`~repro.server.async_server.EngineQueryService`, carries a
registry as its ``subscriptions`` and wakes it from its ``ingest``.
The binding is an
exact snapshot, so every delivered update is the answer over exactly
the pinned row prefix — under a free-running writer too.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.obs import Counters
from repro.query.base import QueryBatch
from repro.query.continuous import uniform_query_tuples, waypoint_trajectory
from repro.query.sharded import ShardedQueryEngine, check_method
from repro.storage.sketch import WindowSketch

if TYPE_CHECKING:
    from repro.query.pipeline.binding import SnapshotBinding

__all__ = [
    "Subscription",
    "SubscriptionRegistry",
    "SubscriptionSpec",
    "SubscriptionUpdate",
    "registry_for",
]

#: The registry's maintenance work, cumulative: its engine's
#: ``subscriptions`` block.
MAINTENANCE_COUNTS = (
    "maintains",
    "quiet_passes",
    "keys_checked",
    "subs_reexecuted",
    "queries_reexecuted",
    "queries_skipped_sketch",
    "updates_delivered",
)

_MISSING = object()


@dataclass(frozen=True)
class SubscriptionSpec:
    """One standing continuous query: a route, a cadence, a method.

    ``route`` follows the web interface's waypoint convention; the
    query-tuple stream is the uniform-interval stream of Query 1 (same
    duration convention as :class:`~repro.client.fleet.FleetMember`:
    ``count * interval_s`` seconds from ``t_start``).  ``method=None``
    picks the engine's default, ``naive``.
    """

    route: Tuple[Tuple[float, float], ...]
    t_start: float
    interval_s: float = 60.0
    count: int = 30
    method: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.route) < 2:
            raise ValueError("a subscription route needs at least two waypoints")
        if not all(math.isfinite(v) for point in self.route for v in point):
            raise ValueError("subscription waypoints must be finite")
        if not math.isfinite(self.t_start):
            raise ValueError("subscription t_start must be finite")
        if not (math.isfinite(self.interval_s) and self.interval_s > 0):
            raise ValueError("subscription interval must be positive and finite")
        if isinstance(self.count, bool) or not isinstance(
            self.count, numbers.Integral
        ):
            raise ValueError("subscription count must be an integer")
        if self.count < 1:
            raise ValueError("a subscription needs at least one query tuple")
        # The route must be interpolable over its span (query_batch's
        # trajectory): a non-empty float time span and finite legs.
        waypoint_trajectory(
            self.route, self.t_start, self.t_start + self.count * self.interval_s
        )

    def query_batch(self) -> QueryBatch:
        """The subscription's uniform query-tuple stream, columnar."""
        duration = self.count * self.interval_s
        traj = waypoint_trajectory(
            [tuple(p) for p in self.route], self.t_start, self.t_start + duration
        )
        queries = uniform_query_tuples(
            traj, self.t_start, self.interval_s, self.count
        )
        return QueryBatch.from_queries(queries)


@dataclass(frozen=True)
class SubscriptionUpdate:
    """One delivered increment of a subscription's answer.

    ``kind`` is ``"initial"`` (the full answer at registration; indices
    cover every query tuple) or ``"delta"`` (only the positions whose
    ``(value, support)`` changed).  ``epoch`` and ``rows`` identify the
    backend state the answers were computed at — ``rows`` is the pinned
    stream length, which is what lets the replay oracle rebuild the
    exact ingested prefix and re-derive the same answers from scratch.
    """

    subscription_id: int
    seq: int
    epoch: int
    rows: int
    kind: str
    indices: np.ndarray
    values: np.ndarray
    support: np.ndarray

    def to_json(self, queries: Optional[QueryBatch] = None) -> Dict[str, Any]:
        """JSON-safe dict (NaN values serialise as null); with
        ``queries`` the changes also carry each tuple's position."""
        changes = []
        for k, i in enumerate(self.indices):
            value = float(self.values[k])
            change: Dict[str, Any] = {
                "i": int(i),
                "value": value if np.isfinite(value) else None,
                "support": int(self.support[k]),
            }
            if queries is not None:
                change["x"] = float(queries.x[i])
                change["y"] = float(queries.y[i])
            changes.append(change)
        return {
            "subscription": self.subscription_id,
            "seq": self.seq,
            "epoch": self.epoch,
            "rows": self.rows,
            "kind": self.kind,
            "changes": changes,
        }


class Subscription:
    """Registry-internal state of one standing query (read-only to
    callers; the registry mutates it under its lock)."""

    __slots__ = (
        "id",
        "spec",
        "method",
        "exact",
        "batch",
        "keys",
        "values",
        "support",
        "seq",
        "unstable",
        "pending",
        "initial",
    )

    def __init__(
        self, sub_id: int, spec: SubscriptionSpec, method: str, exact: bool,
        batch: QueryBatch,
    ) -> None:
        self.id = sub_id
        self.spec = spec
        self.method = method
        self.exact = exact
        self.batch = batch
        self.keys = np.full(len(batch), -1, dtype=np.int64)
        self.values = np.full(len(batch), np.nan)
        self.support = np.zeros(len(batch), dtype=np.int64)
        self.seq = 0
        self.unstable = True
        self.pending: deque = deque()
        self.initial: Optional[SubscriptionUpdate] = None

    def answer(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the last delivered ``(values, support)`` arrays."""
        return self.values.copy(), self.support.copy()


# -- the pinned view ---------------------------------------------------------
#
# A maintenance pass pins one ``(epoch, binding)`` pair of the engine —
# the same RouterBinding the plan pipeline builds and executes plans
# against — and reads it through one :class:`_View`.  Window keys are
# global window indices; a mark is a window's per-shard ``(stamp, rows)``
# tuple.


class _View:
    """One maintenance pass's pinned storage plus its window bookkeeping.

    * ``epoch`` / ``rows`` — ingest epoch and stream length of the pinned
      state (``rows`` is the replay oracle's prefix);
    * :meth:`assign` — (window keys, unstable mask) of a query batch;
    * :meth:`mark` — cheap per-shard ``(stamp, rows)`` for change
      detection.  It reads the binding's ``peek_window``, an O(1)
      *unpinned* read, so checking a registered window never faults a
      cold one in from the durable tier.  It may be fresher than the
      pin, never older: a window whose live mark equals the committed
      one cannot have changed in between (stamps only grow), and any
      other window is re-executed on the pinned slices;
    * :meth:`pinned_mark` — the mark of the *pinned* slices, committed
      after the pass so a skipped window is never marked past the rows
      that were actually examined;
    * :meth:`delta_sketch` — zone map of the rows appended since a
      recorded mark (``None``: treat the window as fully dirty);
    * :meth:`execute` — canonical ``(values, support)`` for a batch.
    """

    __slots__ = ("epoch", "rows", "_binding", "_n_windows", "_engine")

    def __init__(self, engine: ShardedQueryEngine) -> None:
        binding: "SnapshotBinding" = engine.binding()
        self.epoch = binding.epoch
        self.rows = binding.stream_rows()
        self._binding = binding
        self._n_windows = -(-self.rows // engine.router.h)
        self._engine = engine

    def assign(self, batch: QueryBatch) -> Tuple[np.ndarray, np.ndarray]:
        n = len(batch)
        if not self.rows:
            return np.full(n, -1, dtype=np.int64), np.ones(n, dtype=bool)
        keys = self._binding.windows_for_times(batch.t).astype(np.int64)
        return keys, keys >= self._n_windows - 1

    def mark(self, key: int):
        return tuple(self._binding.peek_window(key))

    def pinned_mark(self, key: int):
        binding = self._binding
        return tuple(
            (stamp, len(sub))
            for stamp, sub, _ in (
                binding.slice_for(s, key) for s in range(binding.n_shards)
            )
        )

    def delta_sketch(self, key: int, prev_mark) -> Optional[WindowSketch]:
        binding = self._binding
        if len(prev_mark) != binding.n_shards:
            # A shard split/merge changed the layout since the mark was
            # recorded: per-shard row counts no longer line up, so treat
            # the window as fully dirty (correct, just unsketched).
            return None
        merged = WindowSketch.EMPTY
        for s, (_stamp, n0) in enumerate(prev_mark):
            _stamp, sub, _ = binding.slice_for(s, key)
            if len(sub) > n0:
                merged = merged.merge(WindowSketch.of(sub.slice(n0, len(sub))))
        return merged

    def execute(
        self, batch: QueryBatch, method: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(values, support) with unanswered positions normalised to NaN —
        the canonical delivered form every diff compares bitwise."""
        engine = self._engine
        result = engine.execute(engine.plan(batch, method, binding=self._binding))
        values = np.where(result.answered, result.values, np.nan)
        return values, np.asarray(result.support, dtype=np.int64).copy()


def registry_for(target) -> "SubscriptionRegistry":
    """A registry over a :class:`ShardedQueryEngine`.  Maintenance runs
    its plans through the engine's in-process :meth:`execute`, so an
    engine with a process pool sends the pool nothing from here."""
    if not isinstance(target, ShardedQueryEngine):
        raise TypeError(f"no subscription backend for {type(target).__name__}")
    return SubscriptionRegistry(target)


# -- the registry ------------------------------------------------------------


class SubscriptionRegistry:
    """Standing queries over one engine, maintained epoch-delta-wise.

    Thread-safe: registration, maintenance and polling serialise on one
    lock; :meth:`notify_ingest` (called from writer threads after an
    ingest) only fires listeners and never blocks on maintenance.

    Invariant: after every :meth:`maintain` (and after the implicit pass
    :meth:`register` runs before admitting a new subscription), every
    stored answer is consistent with the pass's pinned view and with the
    recorded window marks — which is what makes the mark comparison of
    the *next* pass sound for every subscription at once.
    """

    def __init__(self, engine: ShardedQueryEngine) -> None:
        self._engine = engine
        self._lock = threading.RLock()
        self._subs: Dict[int, Subscription] = {}
        self._by_key: Dict[int, Set[int]] = {}
        self._marks: Dict[int, Any] = {}
        self._unstable: Set[int] = set()
        self._ids = itertools.count(1)
        self._epoch: Optional[int] = None
        self._rows: Optional[int] = None
        self._stats = engine.metrics.block("subscriptions", MAINTENANCE_COUNTS)
        self._listeners: List[Callable[[], None]] = []

    # -- introspection ------------------------------------------------------

    @property
    def stats(self) -> Counters:
        """The engine's ``subscriptions`` block (:data:`MAINTENANCE_COUNTS`)."""
        return self._stats

    def __len__(self) -> int:
        return len(self._subs)

    def subscription(self, sub_id: int) -> Subscription:
        with self._lock:
            try:
                return self._subs[sub_id]
            except KeyError:
                raise KeyError(f"no subscription {sub_id}") from None

    def subscription_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._subs)

    # -- registration -------------------------------------------------------

    def register(self, spec: SubscriptionSpec) -> Subscription:
        """Admit a standing query; its ``initial`` update holds the full
        answer at the registration view.

        The pass first brings *every existing* subscription current at
        the same pinned view (their deltas queue as usual), so the new
        subscription's marks can be recorded against answers that are
        already consistent with them.
        """
        with self._lock:
            method = check_method(spec.method or "naive")
            view = _View(self._engine)
            self._maintain_at(view)
            # Exact answers come from raw window rows, so spatial delta
            # pruning is sound for them; a model-cover answer depends on
            # the whole window's fit (deterministic per content stamp,
            # so window-level skipping still is).
            sub = Subscription(
                next(self._ids), spec, method,
                exact=method != "model-cover", batch=spec.query_batch(),
            )
            self._subs[sub.id] = sub
            keys, unstable = view.assign(sub.batch)
            new_keys = self._reindex(sub, keys)
            sub.unstable = bool(unstable.any())
            if sub.unstable:
                self._unstable.add(sub.id)
            if view.rows:
                sub.values, sub.support = view.execute(sub.batch, sub.method)
            for key in new_keys:
                self._marks[key] = view.pinned_mark(key)
            sub.initial = SubscriptionUpdate(
                subscription_id=sub.id,
                seq=0,
                epoch=view.epoch,
                rows=view.rows,
                kind="initial",
                indices=np.arange(len(sub.batch), dtype=np.intp),
                values=sub.values.copy(),
                support=sub.support.copy(),
            )
            return sub

    def subscribe(
        self,
        route: Sequence[Tuple[float, float]],
        t_start: float,
        interval_s: float = 60.0,
        count: int = 30,
        method: Optional[str] = None,
    ) -> Subscription:
        """:meth:`register` from plain route fields (the server API)."""
        return self.register(
            SubscriptionSpec(
                route=tuple((float(x), float(y)) for x, y in route),
                t_start=float(t_start),
                interval_s=float(interval_s),
                count=count,
                method=method,
            )
        )

    def unregister(self, sub_id: int) -> None:
        with self._lock:
            sub = self._subs.pop(sub_id, None)
            if sub is None:
                return
            self._unstable.discard(sub_id)
            self._reindex(sub, np.full(len(sub.batch), -1, dtype=np.int64))

    def _reindex(self, sub: Subscription, keys: np.ndarray) -> List[int]:
        """Move ``sub`` to a new key assignment in the inverted index;
        returns keys that were not registered by anyone before (their
        marks must be recorded at the current view by the caller)."""
        old = {int(k) for k in np.unique(sub.keys) if k >= 0}
        new = {int(k) for k in np.unique(keys) if k >= 0}
        # Keys kept across the re-assignment keep their recorded marks:
        # dropping and re-recording one here would fast-forward it past
        # positions still holding answers computed at the old mark.
        for key in old - new:
            owners = self._by_key.get(key)
            if owners is not None:
                owners.discard(sub.id)
                if not owners:
                    del self._by_key[key]
                    self._marks.pop(key, None)
        new_keys: List[int] = []
        for key in new - old:
            owners = self._by_key.setdefault(key, set())
            if not owners and key not in self._marks:
                new_keys.append(key)
            owners.add(sub.id)
        sub.keys = keys.astype(np.int64, copy=True)
        return new_keys

    # -- maintenance --------------------------------------------------------

    def maintain(self) -> List[SubscriptionUpdate]:
        """One epoch-delta maintenance pass against a fresh pinned view.

        Returns the updates delivered this pass (each is also queued on
        its subscription for :meth:`poll`).  A pass at an unchanged
        epoch and row count is quiet: O(1)."""
        with self._lock:
            return self._maintain_at(_View(self._engine))

    def poll(
        self, sub_id: int, maintain: bool = True
    ) -> List[SubscriptionUpdate]:
        """Drain one subscription's queued updates (optionally running a
        maintenance pass first — the server poll path)."""
        with self._lock:
            if maintain:
                self._maintain_at(_View(self._engine))
            sub = self.subscription(sub_id)
            drained = list(sub.pending)
            sub.pending.clear()
            return drained

    def _maintain_at(self, view: _View) -> List[SubscriptionUpdate]:
        stats = self._stats
        # The window count is a function of the row count, so an
        # unchanged (epoch, rows) pair also means no query can remap.
        if view.epoch == self._epoch and view.rows == self._rows:
            stats.bump_all(maintains=1, quiet_passes=1)
            return []
        stats.bump("maintains")
        # 1. Re-assign the unstable subscriptions (only they can remap —
        #    open-tail times, empty-engine waits);
        #    remapped positions re-execute unconditionally.  Stable
        #    subscriptions never pay assignment again.
        forced: Dict[int, np.ndarray] = {}
        if self._unstable:
            for sid in list(self._unstable):
                sub = self._subs[sid]
                keys, unstable = view.assign(sub.batch)
                changed = keys != sub.keys
                if changed.any():
                    for key in self._reindex(sub, keys):
                        # Newly referenced windows are marked below from
                        # the same pinned view the re-execution reads.
                        self._marks[key] = view.pinned_mark(key)
                    forced[sid] = changed
                sub.unstable = bool(unstable.any())
                if not sub.unstable:
                    self._unstable.discard(sid)
        # 2. Mark diff over the registered windows: O(distinct keys).
        dirty_keys: Dict[int, Any] = {}
        for key, mark in self._marks.items():
            if view.mark(key) != mark:
                dirty_keys[key] = mark
        stats.bump("keys_checked", len(self._marks))
        candidates = set(forced)
        for key in dirty_keys:
            candidates |= self._by_key.get(key, set())
        # 3. Per-candidate dirty mask (delta-sketch pruned for exact
        #    methods), then one canonical re-execution of the dirty
        #    subset.
        updates: List[SubscriptionUpdate] = []
        delta_cache: Dict[int, Optional[WindowSketch]] = {}
        for sid in sorted(candidates):
            sub = self._subs[sid]
            mask = forced.get(sid)
            mask = (
                np.zeros(len(sub.batch), dtype=bool)
                if mask is None
                else mask.copy()
            )
            for key in np.unique(sub.keys):
                key = int(key)
                if key not in dirty_keys:
                    continue
                kmask = (sub.keys == key) & ~mask
                if not kmask.any():
                    continue
                if sub.exact:
                    delta = delta_cache.get(key, _MISSING)
                    if delta is _MISSING:
                        delta = view.delta_sketch(key, dirty_keys[key])
                        delta_cache[key] = delta
                    if delta is not None:
                        idx = np.flatnonzero(kmask)
                        reach = delta.disk_overlaps(
                            sub.batch.x[idx],
                            sub.batch.y[idx],
                            self._engine.radius_m,
                        )
                        stats.bump("queries_skipped_sketch", int((~reach).sum()))
                        kmask = np.zeros_like(mask)
                        kmask[idx[reach]] = True
                mask |= kmask
            update = self._reexecute(view, sub, mask)
            if update is not None:
                updates.append(update)
        # Commit marks from the pinned slices that were actually
        # examined — never from an unpinned estimate that might run
        # ahead of them.
        for key in dirty_keys:
            if key in self._marks:
                self._marks[key] = view.pinned_mark(key)
        self._epoch, self._rows = view.epoch, view.rows
        return updates

    def _reexecute(
        self, view: _View, sub: Subscription, mask: np.ndarray
    ) -> Optional[SubscriptionUpdate]:
        if not mask.any():
            return None
        idx = np.flatnonzero(mask)
        self._stats.bump_all(subs_reexecuted=1, queries_reexecuted=len(idx))
        values, support = view.execute(sub.batch.take(idx), sub.method)
        old_values = sub.values[idx]
        old_support = sub.support[idx]
        same = (
            (old_values == values)
            | (np.isnan(old_values) & np.isnan(values))
        ) & (old_support == support)
        sub.values[idx] = values
        sub.support[idx] = support
        changed = idx[~same]
        if not len(changed):
            return None
        sub.seq += 1
        update = SubscriptionUpdate(
            subscription_id=sub.id,
            seq=sub.seq,
            epoch=view.epoch,
            rows=view.rows,
            kind="delta",
            indices=changed.astype(np.intp),
            values=sub.values[changed].copy(),
            support=sub.support[changed].copy(),
        )
        sub.pending.append(update)
        self._stats.bump("updates_delivered")
        return update

    # -- oracle / bench support ---------------------------------------------

    def reference_answers(
        self, batch: QueryBatch, method: Optional[str] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """From-scratch canonical answers for a query batch at a fresh
        pinned view — the baseline the replay oracle and the naive
        re-execution benchmark compare against (same vectorised path
        maintenance uses, so equality is bitwise)."""
        method = check_method(method or "naive")
        view = _View(self._engine)
        if not view.rows:
            return (
                np.full(len(batch), np.nan),
                np.zeros(len(batch), dtype=np.int64),
            )
        return view.execute(batch, method)

    # -- push-path bridge ---------------------------------------------------

    def add_listener(self, listener: Callable[[], None]) -> None:
        """Register an ingest-notification callback (must be cheap and
        thread-safe — e.g. an ``asyncio`` wake-up scheduled with
        ``call_soon_threadsafe``)."""
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[], None]) -> None:
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def notify_ingest(self) -> None:
        """Tell listeners data arrived.  Called by the owning front end
        after each ingest; maintenance itself runs in whoever answers
        the notification (a poller, or a ``/ws`` connection's pass on a
        server worker), never on the ingest thread."""
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener()
