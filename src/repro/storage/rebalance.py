"""Adaptive shard rebalancing: the policy loop over the load tracker.

The mechanism lives elsewhere — :meth:`ShardRouter.split_shard` /
:meth:`ShardRouter.merge_cell` re-cut the layout as epoch-bumped
transactions.  This module is only the *policy*: look at the
:class:`~repro.storage.load.ShardLoadTracker`'s EWMA skew and decide,
one action per step, what to do about it:

1. a shard far above the mean load whose grid cell is still unsplit is
   **split** 2x2 (1x2 / 2x1 on degenerate strip grids) — ingest *and*
   query traffic for the hot region now spreads over the sub-tiles, and
   the sub-tiles' tighter zone-map sketches prune scatter fan-out that
   the whole cell could not;
2. a split cell whose tiles have *all* gone cold is **re-merged**, so a
   workload that moves on does not leave refinement debt behind.

A hot tile already at the refinement limit is left as it is: the
process executor cuts a plan by scan cost, not by shard, so one shard's
load already spreads over every worker.

One action per step keeps the loop observable and testable: callers
(the benchmark, an operator cron, tests) run steps until
:class:`RebalanceAction` ``kind == "none"``.  Each step ends with one
EWMA decay tick, so load that stops arriving ages out and merges
eventually fire.  Thresholds are ratios against the mean active-shard
load, making the policy scale-free in both row counts and query rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geo.region import RefinedRegionGrid
from repro.storage.load import skew_coefficient

__all__ = ["RebalanceAction", "ShardRebalancer"]


@dataclass(frozen=True)
class RebalanceAction:
    """What one :meth:`ShardRebalancer.step` did.

    ``kind`` is ``"split"`` (``shard`` split into ``new_shards``),
    ``"merge"`` (``cell``'s tiles folded into ``shard``) or ``"none"``.
    """

    kind: str
    shard: Optional[int] = None
    cell: Optional[int] = None
    new_shards: Tuple[int, ...] = ()
    skew: float = 1.0


class ShardRebalancer:
    """Policy loop pairing a router's load tracker with its re-cut API.

    ``split_threshold`` — a shard is *hot* when its EWMA load exceeds
    this multiple of the mean active-shard load.  ``merge_threshold`` —
    a split cell re-merges when every tile is below this multiple.
    ``min_rows_to_split`` keeps the policy from thrashing tiny shards
    whose absolute cost is noise.
    """

    def __init__(
        self,
        router,
        split_threshold: float = 2.0,
        merge_threshold: float = 0.5,
        min_rows_to_split: int = 64,
    ) -> None:
        if split_threshold <= 1.0:
            raise ValueError("split_threshold must exceed 1.0")
        if not 0.0 < merge_threshold < 1.0:
            raise ValueError("merge_threshold must be in (0, 1)")
        self.router = router
        self.split_threshold = split_threshold
        self.merge_threshold = merge_threshold
        self.min_rows_to_split = min_rows_to_split
        #: Every action taken, in order (``"none"`` steps excluded).
        self.history: List[RebalanceAction] = []

    # -- observation ---------------------------------------------------------

    def _active_loads(self) -> Dict[int, float]:
        """EWMA load per *active* shard (hole slots carry no region and
        must not drag the mean toward zero after a merge)."""
        loads = self.router.load.loads()
        grid = self.router.grid
        if isinstance(grid, RefinedRegionGrid):
            # active_shards is a boolean slot mask (holes are False).
            active = [int(s) for s in np.flatnonzero(grid.active_shards)]
        else:
            active = list(range(self.router.n_shards))
        return {s: loads[s] for s in active if s < len(loads)}

    def skew(self) -> float:
        """Max/mean load ratio across active shards (1.0 = balanced)."""
        return skew_coefficient(list(self._active_loads().values()))

    # -- the policy step -----------------------------------------------------

    def step(self) -> RebalanceAction:
        """Observe, take at most one action, decay the tracker."""
        action = self._decide()
        if action.kind != "none":
            self.history.append(action)
        self.router.load.decay()
        return action

    def run(self, max_steps: int = 8) -> List[RebalanceAction]:
        """Step until quiescent (or ``max_steps``); returns actions taken."""
        taken: List[RebalanceAction] = []
        for _ in range(max_steps):
            action = self.step()
            if action.kind == "none":
                break
            taken.append(action)
        return taken

    def _decide(self) -> RebalanceAction:
        loads = self._active_loads()
        skew = skew_coefficient(list(loads.values()))
        mean = sum(loads.values()) / len(loads) if loads else 0.0
        if mean <= 0.0:
            return RebalanceAction("none", skew=skew)
        counts = self.router.shard_counts()
        grid = self.router.grid
        refined = grid if isinstance(grid, RefinedRegionGrid) else None

        # Hottest splittable shard first.
        for s, load in sorted(loads.items(), key=lambda kv: (-kv[1], kv[0])):
            if load <= self.split_threshold * mean:
                break
            cell = refined.cell_of_shard(s) if refined is not None else s
            split = refined is not None and refined.is_split(cell)
            if not split and counts[s] >= self.min_rows_to_split:
                new_ids = self.router.split_shard(s)
                return RebalanceAction(
                    "split", shard=s, cell=cell,
                    new_shards=tuple(new_ids), skew=skew,
                )

        # Nothing to split: retire refinement whose tiles all went cold.
        if refined is not None:
            for cell, ids in enumerate(refined.cell_shards):
                if len(ids) < 2:
                    continue
                if all(
                    loads.get(t, 0.0) < self.merge_threshold * mean for t in ids
                ):
                    keep = self.router.merge_cell(cell)
                    return RebalanceAction(
                        "merge", shard=keep, cell=cell, skew=skew
                    )
        return RebalanceAction("none", skew=skew)
