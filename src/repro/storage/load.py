"""Per-shard load statistics for adaptive shard management.

:class:`ShardLoadTracker` keeps per-shard load accounting: every
ingest records the rows it delivered to a shard, every executed scan op
records the queries it answered, the scan units it evaluated (rows per
query, the naive scan's exact unit count) and the wall time the
executor's timed region observed.  Cumulative counters feed
observability (the CLI shards table, the benchmark histograms); the
exponentially-weighted recent-load estimate feeds the
:class:`~repro.storage.rebalance.ShardRebalancer`'s split/merge
decisions, so one historical burst cannot pin a layout forever.

The tracker is owned by the shard router and mutated under the router's
ingest lock (ingest records) or its own lock (scan records arrive from
executor pool threads); snapshots are taken under the lock, so a
rebalance decision never reads a torn counter row.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class ShardLoadStat:
    """One shard's cumulative and recent load counters.

    ``load`` is the EWMA-decayed combination of recent ingest rows and
    scan units — the single axis rebalancing decisions rank shards on.
    Retired hole slots report all-zero rows and decay to zero load.
    """

    shard: int
    ingest_rows: int
    scan_queries: int
    scan_units: float
    scan_seconds: float
    load: float


class ShardLoadTracker:
    """EWMA-decayed per-shard load accounting.

    ``alpha`` is the EWMA weight of a new observation: ``load`` converges toward
    the recent per-observation work and forgets cold history, which is
    what lets a merged-back suburb shard's load fall below the merge
    threshold after the downtown burst moves on.
    """

    def __init__(self, n_shards: int, alpha: float = 0.3) -> None:
        if n_shards < 1:
            raise ValueError("tracker needs at least one shard")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._ingest_rows = [0] * n_shards
        self._scan_queries = [0] * n_shards
        self._scan_units = [0.0] * n_shards
        self._scan_seconds = [0.0] * n_shards
        self._load = [0.0] * n_shards

    @property
    def n_shards(self) -> int:
        return len(self._load)

    def resize(self, n_shards: int) -> None:
        """Grow the slot space (a split appended new shard ids).  Never
        shrinks — retired holes keep their slot and decay instead."""
        with self._lock:
            grow = n_shards - len(self._load)
            if grow > 0:
                self._ingest_rows += [0] * grow
                self._scan_queries += [0] * grow
                self._scan_units += [0.0] * grow
                self._scan_seconds += [0.0] * grow
                self._load += [0.0] * grow

    def reset_shard(self, s: int) -> None:
        """Zero one slot's counters — a rebalance re-cut the slot's rows,
        so its history describes a layout that no longer exists."""
        with self._lock:
            self._ingest_rows[s] = 0
            self._scan_queries[s] = 0
            self._scan_units[s] = 0.0
            self._scan_seconds[s] = 0.0
            self._load[s] = 0.0

    def seed_load(self, s: int, load: float) -> None:
        """Set one slot's recent-load estimate directly.

        A re-cut carries the retired layout's EWMA over to its successor
        slots (a split hands each tile its row-share of the parent's
        load, a merge hands the survivor the tile sum) so a just-split
        hot cell does not instantly look cold enough to re-merge."""
        with self._lock:
            self._load[s] = max(0.0, float(load))

    def record_ingest(self, s: int, rows: int) -> None:
        if rows <= 0:
            return
        with self._lock:
            self._ingest_rows[s] += int(rows)
            self._load[s] += self.alpha * float(rows)

    def record_scan(
        self, s: int, n_queries: int, units: float, seconds: Optional[float]
    ) -> None:
        """One executed scan op against shard ``s``: ``units`` is the
        evaluated scan-unit load (rows per query), ``seconds``
        the executor's observed wall time (None on the process path,
        which does not time per-op)."""
        with self._lock:
            self._scan_queries[s] += int(n_queries)
            self._scan_units[s] += float(units)
            if seconds is not None:
                self._scan_seconds[s] += float(seconds)
            self._load[s] += self.alpha * float(units)

    def decay(self) -> None:
        """One decay tick: recent load forgets ``alpha`` of itself.  The
        rebalancer calls this once per decision round, so load reflects
        the recent window of work rather than all of history."""
        with self._lock:
            keep = 1.0 - self.alpha
            for s in range(len(self._load)):
                self._load[s] *= keep

    def snapshot(self) -> List[ShardLoadStat]:
        """Coherent per-shard stat rows (index = shard slot)."""
        with self._lock:
            return [
                ShardLoadStat(
                    shard=s,
                    ingest_rows=self._ingest_rows[s],
                    scan_queries=self._scan_queries[s],
                    scan_units=self._scan_units[s],
                    scan_seconds=self._scan_seconds[s],
                    load=self._load[s],
                )
                for s in range(len(self._load))
            ]

    def loads(self) -> List[float]:
        """Recent per-shard load values (the rebalancer's ranking axis)."""
        with self._lock:
            return list(self._load)


def skew_coefficient(values) -> float:
    """Max/mean skew over the non-trivial entries of ``values``.

    1.0 means perfectly balanced; ``k`` means the hottest shard carries
    ``k``x the mean.  Zero-only (or empty) input reports 1.0 — an idle
    layout is not skewed.
    """
    vals = [float(v) for v in values]
    total = sum(vals)
    if not vals or total <= 0.0:
        return 1.0
    return max(vals) / (total / len(vals))
