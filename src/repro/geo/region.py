"""Regions: the sensed region and the grid that shards it.

The paper assumes a geographical region ``R`` over which pollution is
sensed, partitioned by the model cover into sub-regions ``R_1 .. R_O``
(Figure 1).  Ad-KMN's partition is a *Voronoi* partition induced by the
cluster centroids: the sub-region ``R_k`` is the part of ``R`` nearer
to centroid ``µ_k`` than to any other, and owns the tuples of the window
``W_c`` assigned to it — the ones the per-region model ``m_k`` is fitted
on.  That partition lives in the cover itself
(:class:`~repro.core.cover.ModelCover`: its centroids and one model
each); this module holds :class:`Region` and the *sharding* partition,
:class:`RegionGrid` (and :class:`RefinedRegionGrid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.geo.coords import BoundingBox


@dataclass(frozen=True)
class Region:
    """The sensed region ``R``: a named bounding box in the local frame."""

    name: str
    bounds: BoundingBox

    def contains(self, x: float, y: float) -> bool:
        return self.bounds.contains_point(x, y)


def _axis_cells(v: np.ndarray, lo: float, extent: float, n: int) -> np.ndarray:
    """Cell index per coordinate on an axis of ``n`` equal cells that
    starts at ``lo`` and spans ``extent``; coordinates outside land in
    the nearest edge cell.  Clamped in the float domain *before* the
    cast: a far finite coordinate has no int64 value (the cast is
    undefined and warns), the clamped cell always has.  ``fmax``/``fmin``
    send NaN to cell 0 — where the clip-after-cast put it on x86; what a
    NaN coordinate should mean is the ingest contract's to decide."""
    f = np.floor((np.asarray(v, dtype=np.float64) - lo) / extent * n)
    return np.fmin(np.fmax(f, 0.0), n - 1.0).astype(np.int64)


def _axis_cell(v: float, lo: float, extent: float, n: int) -> int:
    """:func:`_axis_cells` for one coordinate on Python floats: the same
    three float operations, the same clamp (tests hold the pair equal
    for every finite float)."""
    f = (v - lo) / extent * n
    if not f >= 1.0:  # below the axis, the first cell, -0.0, NaN
        return 0
    return n - 1 if f >= n - 1 else int(f)


@dataclass(frozen=True)
class RegionGrid:
    """A fixed ``nx x ny`` grid of regions tiling the sensed region ``R``.

    This is the *sharding* partition (as opposed to the Voronoi partition
    into sub-regions ``R_k``, which the model cover induces per window): every
    point of the plane is owned by exactly one cell, so a tuple stream can
    be split into disjoint per-region shards.  Points outside ``bounds``
    are owned by the nearest edge cell — edge cells own unbounded slabs —
    which keeps ownership total without a catch-all shard.

    Cells are numbered row-major: cell ``(i, j)`` (column ``i``, row
    ``j``) has index ``j * nx + i``.
    """

    bounds: BoundingBox
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per axis")
        if self.bounds.width <= 0 or self.bounds.height <= 0:
            raise ValueError("region grid needs a non-degenerate bounding box")

    @classmethod
    def for_shard_count(cls, bounds: BoundingBox, n: int) -> "RegionGrid":
        """The most square ``nx x ny`` factorisation of ``n`` cells.

        Prefers wider-than-tall when ``bounds`` is wider than tall (and
        vice versa) so cells stay as close to square as the factorisation
        allows; a prime ``n`` degrades to a ``1 x n`` strip.
        """
        if n < 1:
            raise ValueError("need at least one shard")
        a = int(math.isqrt(n))
        while n % a:
            a -= 1
        b = n // a  # a <= b
        if bounds.width >= bounds.height:
            return cls(bounds, nx=b, ny=a)
        return cls(bounds, nx=a, ny=b)

    @property
    def n_regions(self) -> int:
        return self.nx * self.ny

    def region(self, k: int) -> Region:
        """Cell ``k`` as a :class:`Region` (its finite core rectangle)."""
        if not 0 <= k < self.n_regions:
            raise ValueError(f"no region {k} in a {self.nx}x{self.ny} grid")
        i, j = k % self.nx, k // self.nx
        w = self.bounds.width / self.nx
        h = self.bounds.height / self.ny
        return Region(
            name=f"cell-{i},{j}",
            bounds=BoundingBox(
                self.bounds.min_x + i * w,
                self.bounds.min_y + j * h,
                self.bounds.min_x + (i + 1) * w,
                self.bounds.min_y + (j + 1) * h,
            ),
        )

    def shards_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Owning cell index per position (vectorised, total)."""
        b = self.bounds
        i = _axis_cells(xs, b.min_x, b.width, self.nx)
        return _axis_cells(ys, b.min_y, b.height, self.ny) * self.nx + i

    def shard_of(self, x: float, y: float) -> int:
        """Owning cell index of one position (scalar arithmetic; equal
        to ``shards_of([x], [y])[0]``)."""
        b = self.bounds
        i = _axis_cell(x, b.min_x, b.width, self.nx)
        return _axis_cell(y, b.min_y, b.height, self.ny) * self.nx + i

    def disk_cell_ranges(
        self, xs: np.ndarray, ys: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-query cell index ranges ``(i_lo, i_hi, j_lo, j_hi)`` that a
        radius-``radius`` disk can draw owned tuples from.

        Ownership cells are monotone in each coordinate, so any tuple
        within the disk around ``(x, y)`` is owned by a cell inside the
        index rectangle of the disk's bounding square.  The rectangle is a
        (slightly conservative) superset near cell corners — harmless for
        scatter-gather, since a shard with no in-radius tuples contributes
        an empty partial.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        b = self.bounds
        return (
            _axis_cells(xs - radius, b.min_x, b.width, self.nx),
            _axis_cells(xs + radius, b.min_x, b.width, self.nx),
            _axis_cells(ys - radius, b.min_y, b.height, self.ny),
            _axis_cells(ys + radius, b.min_y, b.height, self.ny),
        )

    def disk_shards(self, x: float, y: float, radius: float) -> np.ndarray:
        """Cell indices a disk query must be scattered to, vectorised.

        The row-major flattening of the :meth:`disk_cell_ranges` index
        rectangle (rows outer, columns inner — the same order the old
        double loop produced).
        """
        i_lo, i_hi, j_lo, j_hi = self.disk_cell_ranges(
            np.array([x]), np.array([y]), radius
        )
        ii = np.arange(int(i_lo[0]), int(i_hi[0]) + 1, dtype=np.int64)
        jj = np.arange(int(j_lo[0]), int(j_hi[0]) + 1, dtype=np.int64)
        return (jj[:, None] * self.nx + ii[None, :]).ravel()

    def shards_overlapping_disk(self, x: float, y: float, radius: float) -> List[int]:
        """Cell indices a disk query must be scattered to (superset-safe).

        List-returning compatibility wrapper over :meth:`disk_shards`.
        """
        return self.disk_shards(x, y, radius).tolist()

    def disks_shard_mask(
        self, xs: np.ndarray, ys: np.ndarray, radius: float
    ) -> np.ndarray:
        """Batch scatter mask: ``mask[q, k]`` is True when query ``q``'s
        disk can draw owned tuples from cell ``k``.

        One vectorised evaluation of the :meth:`disk_cell_ranges`
        rectangles for a whole heatmap grid / query batch — the geometry
        half of the plan-time scatter-pruning pass.  Shape
        ``(len(xs), n_regions)``, columns in row-major cell order.
        """
        i_lo, i_hi, j_lo, j_hi = self.disk_cell_ranges(xs, ys, radius)
        i = np.arange(self.nx, dtype=np.int64)
        j = np.arange(self.ny, dtype=np.int64)
        in_i = (i_lo[:, None] <= i) & (i <= i_hi[:, None])  # (n, nx)
        in_j = (j_lo[:, None] <= j) & (j <= j_hi[:, None])  # (n, ny)
        return (in_j[:, :, None] & in_i[:, None, :]).reshape(len(in_i), -1)


class RefinedRegionGrid:
    """A :class:`RegionGrid` with one level of per-cell refinement.

    Each base cell is either *unsplit* (one shard owning the whole cell)
    or split into ``sx x sy`` sub-tiles (``sx, sy`` in {1, 2}, at least
    one of them 2) each owned by its own shard — the hot-region split the
    adaptive shard manager performs when one downtown cell saturates its
    shard.  Refinement is expressed on the *fine lattice* of
    ``2*nx x 2*ny`` half-cells: every shard owns an axis-aligned
    rectangle of fine cells (a full 2x2 block when unsplit; a 1x1, 2x1
    or 1x2 block when split), so ownership stays total and monotone per
    coordinate and the scatter-pruning geometry
    (:meth:`disks_shard_mask`) remains one vectorised interval-overlap
    test.

    Ownership is *exactly* consistent with the base grid: for any point,
    ``floor(f * 2n) // 2 == floor(f * n)`` (including the clamped edge
    slabs), so an all-unsplit refined grid routes every tuple to the same
    shard index the base grid would — the invariant that makes the
    pre-split layout byte-identical to the static grid it refines.

    **Stable shard ids**: splitting a cell keeps the cell's shard id for
    the first sub-tile and assigns the extra sub-tiles ids from a
    free-list of retired slots (growing the id space only when no holes
    exist); merging frees the extra ids back.  Unaffected shards never
    renumber, so their caches, stamps and exports stay warm across a
    rebalance.  A retired slot is a *hole*: it owns no geometry, answers
    no queries and is skipped by every mask until a later split reuses
    it.

    Instances are immutable; :meth:`split_cell` / :meth:`merge_cell`
    return new grids.
    """

    def __init__(
        self,
        base: RegionGrid,
        cell_splits: Tuple[Tuple[int, int], ...],
        cell_shards: Tuple[Tuple[int, ...], ...],
        n_slots: int,
    ) -> None:
        if len(cell_splits) != base.n_regions or len(cell_shards) != base.n_regions:
            raise ValueError("refinement tables must cover every base cell")
        self.base = base
        self.cell_splits = cell_splits
        self.cell_shards = cell_shards
        self._n_slots = n_slots
        nx, ny = base.nx, base.ny
        owner = np.full((2 * ny, 2 * nx), -1, dtype=np.int64)
        rects = np.full((n_slots, 4), -1, dtype=np.int64)  # i0, i1, j0, j1
        active = np.zeros(n_slots, dtype=bool)
        for k, ids in enumerate(cell_shards):
            sx, sy = cell_splits[k]
            if sx not in (1, 2) or sy not in (1, 2) or len(ids) != sx * sy:
                raise ValueError(f"cell {k}: bad split {sx}x{sy} for {ids}")
            i, j = k % nx, k // nx
            wi, wj = 2 // sx, 2 // sy
            for r in range(sy):
                for q in range(sx):
                    sid = ids[r * sx + q]
                    if not 0 <= sid < n_slots or active[sid]:
                        raise ValueError(f"cell {k}: shard id {sid} invalid")
                    i0, j0 = 2 * i + q * wi, 2 * j + r * wj
                    owner[j0 : j0 + wj, i0 : i0 + wi] = sid
                    rects[sid] = (i0, i0 + wi - 1, j0, j0 + wj - 1)
                    active[sid] = True
        owner.flags.writeable = False
        rects.flags.writeable = False
        active.flags.writeable = False
        self._owner = owner
        # The same table as nested tuples: shard_of's scalar lookup.
        self._owner_rows = tuple(map(tuple, owner.tolist()))
        self._rects = rects
        self._active = active

    @classmethod
    def refine(cls, base: RegionGrid) -> "RefinedRegionGrid":
        """The all-unsplit refinement of ``base`` (identical routing)."""
        n = base.n_regions
        return cls(
            base,
            tuple((1, 1) for _ in range(n)),
            tuple((k,) for k in range(n)),
            n,
        )

    # -- topology ----------------------------------------------------------

    @property
    def bounds(self) -> BoundingBox:
        return self.base.bounds

    @property
    def n_regions(self) -> int:
        """Total shard-id slots, retired holes included (holes own no
        geometry; they keep unaffected shard indices stable)."""
        return self._n_slots

    @property
    def active_shards(self) -> np.ndarray:
        """Boolean mask over slots: True where the slot owns geometry."""
        return self._active

    def is_split(self, k: int) -> bool:
        return len(self.cell_shards[k]) > 1

    def cell_of_shard(self, s: int) -> int:
        """Base cell index shard ``s``'s tile lies in."""
        if not 0 <= s < self._n_slots or not self._active[s]:
            raise ValueError(f"shard {s} is not an active slot")
        i0, _, j0, _ = self._rects[s]
        return (int(j0) // 2) * self.base.nx + int(i0) // 2

    def region(self, k: int) -> Region:
        """Shard ``k``'s tile as a :class:`Region` (finite core rect)."""
        if not 0 <= k < self._n_slots or not self._active[k]:
            raise ValueError(f"shard {k} is not an active slot")
        i0, i1, j0, j1 = (int(v) for v in self._rects[k])
        b = self.base.bounds
        fw = b.width / (2 * self.base.nx)
        fh = b.height / (2 * self.base.ny)
        return Region(
            name=f"tile-{i0},{j0}",
            bounds=BoundingBox(
                b.min_x + i0 * fw,
                b.min_y + j0 * fh,
                b.min_x + (i1 + 1) * fw,
                b.min_y + (j1 + 1) * fh,
            ),
        )

    # -- ownership ---------------------------------------------------------

    def _fcells_x(self, xs: np.ndarray) -> np.ndarray:
        b = self.base.bounds
        return _axis_cells(xs, b.min_x, b.width, 2 * self.base.nx)

    def _fcells_y(self, ys: np.ndarray) -> np.ndarray:
        b = self.base.bounds
        return _axis_cells(ys, b.min_y, b.height, 2 * self.base.ny)

    def shards_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Owning shard per position (vectorised, total)."""
        return self._owner[self._fcells_y(ys), self._fcells_x(xs)]

    def shard_of(self, x: float, y: float) -> int:
        """Owning shard of one position (scalar arithmetic; equal to
        ``shards_of([x], [y])[0]``)."""
        b = self.base.bounds
        i = _axis_cell(x, b.min_x, b.width, 2 * self.base.nx)
        j = _axis_cell(y, b.min_y, b.height, 2 * self.base.ny)
        return self._owner_rows[j][i]

    # -- scatter geometry --------------------------------------------------

    def disks_shard_mask(
        self, xs: np.ndarray, ys: np.ndarray, radius: float
    ) -> np.ndarray:
        """Batch scatter mask over *shard slots*: ``mask[q, s]`` is True
        when query ``q``'s disk can draw owned tuples from shard ``s``'s
        tile.  Same superset-safe semantics as
        :meth:`RegionGrid.disks_shard_mask` — the disk's bounding square
        resolved to a fine-lattice index rectangle, tested for overlap
        against each shard's tile rectangle.  Holes are always False.
        For an all-unsplit refinement the mask equals the base grid's
        column for column."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        fi_lo = self._fcells_x(xs - radius)[:, None]
        fi_hi = self._fcells_x(xs + radius)[:, None]
        fj_lo = self._fcells_y(ys - radius)[:, None]
        fj_hi = self._fcells_y(ys + radius)[:, None]
        r = self._rects
        return (
            self._active
            & (r[:, 0] <= fi_hi)
            & (r[:, 1] >= fi_lo)
            & (r[:, 2] <= fj_hi)
            & (r[:, 3] >= fj_lo)
        )

    def disk_shards(self, x: float, y: float, radius: float) -> np.ndarray:
        """Shard slots a disk query must be scattered to (superset-safe)."""
        return np.flatnonzero(
            self.disks_shard_mask(np.array([x]), np.array([y]), radius)[0]
        )

    def shards_overlapping_disk(self, x: float, y: float, radius: float) -> List[int]:
        return self.disk_shards(x, y, radius).tolist()

    # -- refinement transitions --------------------------------------------

    def _free_slots(self) -> List[int]:
        return [s for s in range(self._n_slots) if not self._active[s]]

    def split_cell(self, k: int, sx: int = 2, sy: int = 2) -> "RefinedRegionGrid":
        """A new grid with base cell ``k`` split into ``sx x sy`` tiles.

        The cell's current shard id stays on the first (bottom-left)
        sub-tile; the extra tiles take retired slot ids first, then grow
        the slot space.  Returns the new grid — the caller (the shard
        router) re-routes the rows.
        """
        if not 0 <= k < self.base.n_regions:
            raise ValueError(f"no base cell {k}")
        if self.is_split(k):
            raise ValueError(f"cell {k} is already split (one level only)")
        if sx not in (1, 2) or sy not in (1, 2) or sx * sy < 2:
            raise ValueError("split factors must be 2x2, 1x2 or 2x1")
        holes = self._free_slots()
        n_slots = self._n_slots
        ids = [self.cell_shards[k][0]]
        for _ in range(sx * sy - 1):
            if holes:
                ids.append(holes.pop(0))
            else:
                ids.append(n_slots)
                n_slots += 1
        splits = list(self.cell_splits)
        shards = list(self.cell_shards)
        splits[k] = (sx, sy)
        shards[k] = tuple(ids)
        return RefinedRegionGrid(self.base, tuple(splits), tuple(shards), n_slots)

    def merge_cell(self, k: int) -> "RefinedRegionGrid":
        """A new grid with base cell ``k``'s tiles re-merged into one
        shard (the lowest of the tile ids, for determinism); the other
        tile ids become retired holes."""
        if not 0 <= k < self.base.n_regions:
            raise ValueError(f"no base cell {k}")
        if not self.is_split(k):
            raise ValueError(f"cell {k} is not split")
        keep = min(self.cell_shards[k])
        splits = list(self.cell_splits)
        shards = list(self.cell_shards)
        splits[k] = (1, 1)
        shards[k] = (keep,)
        return RefinedRegionGrid(self.base, tuple(splits), tuple(shards), self._n_slots)
