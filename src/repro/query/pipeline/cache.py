"""The one processor cache: an epoch-keyed bounded LRU for every path.

Before the plan-pipeline refactor three divergent cache implementations
guarded materialised processors: the query engine's stamped
``OrderedDict`` (atomic lookup-or-build under one lock), the sharded
engine's lookup/insert pair (builds outside the lock, lost races
discarded), and the server's per-window cover memo (one live entry per
window, unbounded).  :class:`ProcessorCache` replaces all three with a
single epoch-keyed bounded LRU and one uniform counter block.

**Epoch keying.**  Every entry is stored under a logical ``key`` plus a
content ``stamp`` — the epoch at which the underlying window slice last
gained tuples (see :meth:`repro.storage.shards.ShardRouter.shard_window_epoch`),
or the epoch a snapshot binding pinned it at.  A
lookup whose stamp differs from the stored entry's is a **stale** lookup:
the entry was built on a shorter prefix of a still-open window and must
never be served.  Stale entries are replaced in place on the next build,
so invalidation needs no explicit eviction sweep — ingest advances the
stamps, and the stale entries simply stop matching.  Sealed windows keep
frozen stamps forever, so their entries hit until LRU pressure evicts
them.

**Builds run outside the lock, once per entry.**  ``get_or_build``
looks up under the cache lock, builds outside it so distinct processors
materialise in parallel, and inserts under it again.  Readers that miss
the same ``(key, stamp)`` while its build is in flight wait for that
build instead of repeating it (an Ad-KMN fit costs milliseconds, and
several readers missing the same fresh window at once would otherwise
each fit it).  A lost insert race discards the duplicate — builds only
read immutable window slices, so duplicates are equivalent.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import Counters

__all__ = ["CACHE_COUNTS", "ProcessorCache"]

#: A cache's counter block.  ``stale`` counts lookups that found an
#: entry built at an outdated content stamp; each is also a miss (the
#: entry cannot be served and is rebuilt), so every lookup is a hit or a
#: miss.
CACHE_COUNTS = ("hits", "misses", "evictions", "stale")


class ProcessorCache:
    """Bounded LRU of epoch-stamped values keyed by logical cache keys.

    ``capacity`` bounds the entry count (least recently used evicted
    first); :attr:`stats` is the live :data:`CACHE_COUNTS` block — the
    one given (an engine passes a block of its ``metrics``) or one of
    its own.  Thread-safe: all bookkeeping, counts included, runs under
    the block's lock.
    """

    def __init__(self, capacity: int, stats: Optional[Counters] = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self._entries: "OrderedDict[tuple, Tuple[int, object]]" = OrderedDict()
        self._capacity = capacity
        # (key, stamp) -> a lock its builder holds until the build ends.
        self._building: Dict[Tuple[tuple, int], threading.Lock] = {}
        self.stats = stats if stats is not None else Counters(CACHE_COUNTS)
        self._lock = self.stats.lock
        self._counts = self.stats.counts

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[tuple]:
        """Cache keys in eviction order (least recently used first)."""
        with self._lock:
            return list(self._entries)

    def entry_stamp(self, key: tuple) -> Optional[int]:
        """Content stamp of the entry under ``key`` (None when absent)."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry[0]

    # -- core protocol ------------------------------------------------------

    def peek(self, key: tuple, stamp: int, count_hit: bool = False):
        """Like :meth:`lookup`, but a miss touches no counter — for
        introspection (``explain`` reading memoised estimates) and for a
        caller that serves hits itself and leaves every miss to a path
        that will look the key up again (and count it then):
        ``count_hit=True`` records the hit and refreshes recency exactly
        as :meth:`lookup` does; by default a hit is not recorded either.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == stamp:
                if count_hit:
                    self._entries.move_to_end(key)
                    self._counts["hits"] += 1
                return entry[1]
            return None

    def peek_all(self, pairs: Sequence[Tuple[tuple, int]]) -> List[object]:
        """:meth:`peek` of every ``(key, stamp)`` of ``pairs`` in one
        lock section, counting nothing: each value, or ``None`` where
        the key is missing or at another stamp."""
        with self._lock:
            get = self._entries.get
            values = []
            for key, stamp in pairs:
                entry = get(key)
                values.append(entry[1] if entry is not None and entry[0] == stamp else None)
            return values

    def count_hits(self, pairs: Sequence[Tuple[tuple, int]]) -> None:
        """``peek(key, stamp, count_hit=True)`` of every ``(key, stamp)``
        of ``pairs`` in one lock section: each that is still cached at
        its stamp counts a hit and becomes most recently used."""
        with self._lock:
            entries = self._entries
            for key, stamp in pairs:
                entry = entries.get(key)
                if entry is not None and entry[0] == stamp:
                    entries.move_to_end(key)
                    self._counts["hits"] += 1

    def lookup(self, key: tuple, stamp: int):
        """The cached value under ``key`` at content ``stamp``, or None.

        Records a hit, or a miss (plus stale when an outdated-stamp entry
        was found).  A hit refreshes LRU recency.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == stamp:
                self._entries.move_to_end(key)
                self._counts["hits"] += 1
                return entry[1]
            if entry is not None and entry[0] < stamp:
                # Only a genuinely outdated entry counts as stale churn; a
                # reader pinned at an *older* snapshot probing a fresher
                # entry is just a miss for that reader, not invalidation.
                self._counts["stale"] += 1
            self._counts["misses"] += 1
            return None

    def insert(self, key: tuple, stamp: int, value):
        """Store ``value`` under ``key`` at ``stamp``; returns the value
        the *caller* should use.  A racing builder that already inserted
        at the same stamp wins (duplicate builds of immutable processors
        are equivalent); an entry at a **newer** stamp is kept for future
        readers while the older-snapshot caller gets its own build back
        — insertion never moves a key backwards in epoch time."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[0] == stamp:  # a racing builder won: keep its entry
                    self._entries.move_to_end(key)
                    return entry[1]
                if entry[0] > stamp:
                    # A fresher-epoch entry already lives here.  Stamps are
                    # monotone, so keep the newer entry for future readers
                    # and hand this (older-snapshot) caller its own build —
                    # interleaved readers pinned at successive epochs of an
                    # open window must not ping-pong rebuild each other's
                    # processors.
                    return value
            self._entries[key] = (stamp, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._counts["evictions"] += 1
            return value

    def get_or_build(self, key: tuple, stamp: int, build: Callable[[], object]):
        """Serve ``key`` at ``stamp`` from cache or build-and-insert it.

        The build runs outside the cache lock, so distinct keys
        materialise in parallel; a caller that misses while the same
        ``(key, stamp)`` is being built waits for that build and serves
        its value (building itself only if that build failed or its entry
        is already gone).  Every caller's lookup counts, so a waiter is a
        miss that built nothing.  A lost insert race returns the winner's
        value and discards the duplicate (see :meth:`insert`).
        """
        value = self.lookup(key, stamp)
        if value is not None:
            return value
        flight_key = (key, stamp)
        with self._lock:
            flight = self._building.get(flight_key)
            leader = flight is None
            if leader:
                flight = self._building[flight_key] = threading.Lock()
                flight.acquire()
        if not leader:
            with flight:  # held by the builder until its build ends
                pass
            value = self.peek(key, stamp)
            return value if value is not None else self.insert(key, stamp, build())
        try:
            return self.insert(key, stamp, build())
        finally:
            with self._lock:
                del self._building[flight_key]
            flight.release()
