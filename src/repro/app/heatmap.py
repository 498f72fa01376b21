"""Heatmap rendering (Section 3, Figure 5(b)).

"The emitting points are the centroids computed by the Ad-KMN algorithm
with its pollution level.  The points are colored in a scale going from
acceptable (green) to dangerous to human health (red)."

A :class:`Heatmap` wraps a value grid over a bounding box; renderers turn
it into an ASCII picture (for terminals/tests), a binary PPM image (no
external imaging dependency), or an RGB matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.geo.coords import BoundingBox

# Green -> yellow -> red ramp, matching the app's acceptable→dangerous scale.
_RAMP: Tuple[Tuple[float, Tuple[int, int, int]], ...] = (
    (0.00, (46, 204, 64)),
    (0.35, (163, 217, 119)),
    (0.55, (255, 220, 0)),
    (0.75, (255, 133, 27)),
    (1.00, (255, 65, 54)),
)

_ASCII_LEVELS = " .:-=+*#%@"


@dataclass
class Heatmap:
    """A value grid with geography attached.

    ``grid`` has shape (ny, nx); row 0 is the *south* edge (min_y).  NaN
    cells mean "no data" and render as blanks / grey.
    """

    grid: np.ndarray
    bounds: BoundingBox

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 2:
            raise ValueError("heatmap grid must be 2-D")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.grid.shape

    def value_range(self) -> Tuple[float, float]:
        """(min, max) over non-NaN cells; raises when fully empty."""
        finite = self.grid[np.isfinite(self.grid)]
        if not len(finite):
            raise ValueError("heatmap has no data")
        return float(np.min(finite)), float(np.max(finite))

    def normalised(
        self, vmin: Optional[float] = None, vmax: Optional[float] = None
    ) -> np.ndarray:
        """Grid scaled into [0, 1] (NaN preserved)."""
        lo, hi = self.value_range()
        lo = lo if vmin is None else vmin
        hi = hi if vmax is None else vmax
        if hi <= lo:
            return np.where(np.isfinite(self.grid), 0.5, np.nan)
        return np.clip((self.grid - lo) / (hi - lo), 0.0, 1.0)

    def cell_center(self, i: int, j: int) -> Tuple[float, float]:
        """World coordinates of cell column ``i``, row ``j``."""
        ny, nx = self.grid.shape
        fx = 0.5 if nx == 1 else i / (nx - 1)
        fy = 0.5 if ny == 1 else j / (ny - 1)
        return (
            self.bounds.min_x + fx * self.bounds.width,
            self.bounds.min_y + fy * self.bounds.height,
        )


_RAMP_STOPS = np.array([f for f, _ in _RAMP])
_RAMP_RGB = np.array([c for _, c in _RAMP], dtype=np.float64)


def colorize(heatmap: Heatmap) -> np.ndarray:
    """(ny, nx, 3) uint8 RGB image; NaN cells are grey.

    Vectorised: one ``np.interp`` per channel over the whole grid instead
    of a per-cell ramp walk — the batched heatmap path renders 1200-cell
    grids, so the colour pass should not reintroduce a scalar loop.
    """
    norm = heatmap.normalised()
    finite = np.isfinite(norm)
    v = np.where(finite, norm, 0.0)
    out = np.empty(norm.shape + (3,), dtype=np.uint8)
    for ch in range(3):
        out[..., ch] = np.rint(
            np.interp(v, _RAMP_STOPS, _RAMP_RGB[:, ch])
        ).astype(np.uint8)
    out[~finite] = 128
    return out


def render_ascii(heatmap: Heatmap) -> str:
    """Terminal rendering: one character per cell, north at the top."""
    norm = heatmap.normalised()
    ny, nx = norm.shape
    lines: List[str] = []
    for j in reversed(range(ny)):  # row 0 is south; print north first
        chars = []
        for i in range(nx):
            v = norm[j, i]
            if not np.isfinite(v):
                chars.append(" ")
            else:
                idx = min(int(v * len(_ASCII_LEVELS)), len(_ASCII_LEVELS) - 1)
                chars.append(_ASCII_LEVELS[idx])
        lines.append("".join(chars))
    return "\n".join(lines)


def render_ppm(heatmap: Heatmap, path: Union[str, Path]) -> None:
    """Write a binary PPM (P6) image — viewable anywhere, zero deps."""
    rgb = colorize(heatmap)
    ny, nx, _ = rgb.shape
    # Flip vertically: PPM rows go top-down, our row 0 is the south edge.
    flipped = rgb[::-1]
    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    Path(path).write_bytes(header + flipped.tobytes())
