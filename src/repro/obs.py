"""One counter shape for every layer: :class:`Metrics`, a registry of
named :class:`Counters` blocks.

A block is counts keyed by a name (``"hits"``) or a label tuple
(``("point", "cover")``).  The registry is not global: the engine builds
one (``ShardedQueryEngine.metrics``) and every layer that reports
through it — its caches, its process pool, the subscription registry,
the service — takes its block from the engine it is given.  The server
answers ``GET /metrics`` with :meth:`Metrics.render`: every block as one
JSON object, sorted, a label tuple written as its parts joined by
``/``.
"""

from __future__ import annotations

import json
import threading
from typing import Callable, Dict, Hashable, Iterable

__all__ = ["Counters", "Metrics"]


class Counters:
    """One counter block.

    ``lock`` guards ``counts``.  :meth:`bump` takes it for one count;
    an owner that bumps inside a lock section of its own instead shares
    the block's lock and writes ``counts`` under it (the processor cache
    counts a hit in its lookup's section).  A named count also reads as
    an attribute (``block.hits``).
    """

    __slots__ = ("lock", "counts")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self.lock = threading.Lock()
        self.counts: Dict[Hashable, int] = dict.fromkeys(names, 0)

    def bump(self, key: Hashable, n: int = 1) -> None:
        with self.lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def bump_all(self, **counts: int) -> None:
        """Several named counts in one lock section."""
        with self.lock:
            mine = self.counts
            for key, n in counts.items():
                mine[key] = mine.get(key, 0) + n

    def __getattr__(self, name: str) -> int:
        try:
            return self.counts[name]
        except KeyError:
            raise AttributeError(name) from None

    def as_dict(self) -> Dict[Hashable, int]:
        with self.lock:
            return dict(self.counts)


def _label(key: Hashable) -> str:
    return "/".join(map(str, key)) if isinstance(key, tuple) else str(key)


class Metrics:
    """Named counter blocks, plus blocks read from their owner at scrape
    time (:meth:`read`: the tiered store's ``tier_stats``)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blocks: Dict[str, Counters] = {}
        self._reads: Dict[str, Callable[[], Dict]] = {}

    def block(self, name: str, names: Iterable[str] = ()) -> Counters:
        """The block called ``name``, made (its ``names`` at 0) on first
        use: every owner that asks for a name shares its block."""
        with self._lock:
            block = self._blocks.get(name)
            if block is None:
                block = self._blocks[name] = Counters(names)
                self._reads[name] = block.as_dict
            return block

    def read(self, name: str, counts: Callable[[], Dict]) -> None:
        """Report ``counts()`` as block ``name`` at every scrape."""
        with self._lock:
            self._reads[name] = counts

    def __getitem__(self, name: str) -> Counters:
        return self._blocks[name]

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Every block's counts, labels written as :meth:`render` does."""
        with self._lock:
            reads = sorted(self._reads.items())
        return {name: {_label(k): v for k, v in read().items()} for name, read in reads}

    def render(self) -> bytes:
        """The ``GET /metrics`` body: :meth:`as_dict` as sorted JSON."""
        return json.dumps(self.as_dict(), sort_keys=True).encode("utf-8")
