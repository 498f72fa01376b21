"""Operator dashboard: platform health at a glance.

The demo shows the *user-facing* interfaces; whoever runs the platform
needs the other side — how skewed the current window is, how hard
Ad-KMN had to work, how stale the served cover is, what clients are
costing the uplink.  This module computes those indicators from the
server's state and renders them as a plain-text panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.adkmn import AdKMNResult, fit_adkmn
from repro.data.tuples import TupleBatch
from repro.geo.region import Region
from repro.server.async_server import EngineQueryService


@dataclass(frozen=True)
class SkewIndicators:
    """Geo-temporal skew of one window (the paper's Section 1 concern)."""

    tuple_count: int
    covered_area_fraction: float     # sensed cells / region cells
    largest_gap_s: float             # longest silence inside the window
    tuples_per_model: float          # data support per sub-region

    @property
    def is_sparse(self) -> bool:
        return self.covered_area_fraction < 0.25 or self.tuple_count < 40


def skew_indicators(
    window: TupleBatch,
    region: Region,
    result: Optional[AdKMNResult] = None,
    cell_m: float = 500.0,
) -> SkewIndicators:
    """Quantify the window's geo-temporal skew.

    Coverage is measured on a ``cell_m`` grid over the region: the
    fraction of cells containing at least one tuple.  The largest gap is
    the longest time interval without any measurement.
    """
    if not len(window):
        raise ValueError("cannot profile an empty window")
    if cell_m <= 0:
        raise ValueError("cell size must be positive")
    b = region.bounds
    nx = max(int(np.ceil(b.width / cell_m)), 1)
    ny = max(int(np.ceil(b.height / cell_m)), 1)
    ix = np.clip(((window.x - b.min_x) / cell_m).astype(int), 0, nx - 1)
    iy = np.clip(((window.y - b.min_y) / cell_m).astype(int), 0, ny - 1)
    occupied = len(set(zip(ix.tolist(), iy.tolist())))
    gaps = np.diff(np.sort(window.t))
    largest_gap = float(np.max(gaps)) if len(gaps) else 0.0
    per_model = (
        len(window) / result.cover.size if result is not None else float(len(window))
    )
    return SkewIndicators(
        tuple_count=len(window),
        covered_area_fraction=occupied / (nx * ny),
        largest_gap_s=largest_gap,
        tuples_per_model=per_model,
    )


@dataclass(frozen=True)
class CoverHealth:
    """How the current cover is doing."""

    window_c: int
    n_models: int
    worst_error_pct: float
    converged: bool
    valid_until: float
    staleness_s: float               # now - last data timestamp

    @property
    def needs_attention(self) -> bool:
        return not self.converged or self.staleness_s > 4 * 3600.0


def cover_health(result: AdKMNResult, now: float, window: TupleBatch) -> CoverHealth:
    """Health record for a fitted cover at wall-clock ``now``."""
    if not len(window):
        raise ValueError("cannot assess an empty window")
    return CoverHealth(
        window_c=result.cover.window_c,
        n_models=result.cover.size,
        worst_error_pct=result.worst_error_pct,
        converged=result.converged,
        valid_until=result.cover.valid_until,
        staleness_s=max(now - float(window.t[-1]), 0.0),
    )


class Dashboard:
    """Text panel over a running one-shard service."""

    def __init__(self, service: EngineQueryService, region: Region) -> None:
        self.service = service
        self.region = region

    def render(self, now: float) -> str:
        """One status panel for time ``now``."""
        service = self.service
        router = service.engine.router
        n = router.global_count()
        if not n:
            return "EnviroMeter server: no data ingested yet."
        c = int(router.windows_for_times((now,))[0])
        window = router.shard_window(0, c)
        # The fit's diagnostics (worst error, convergence) are not kept
        # with the served cover, so the panel fits the window itself.
        result = fit_adkmn(
            window,
            service.engine.config,
            valid_until=float(window.t[-1]) + service.validity_horizon_s,
            window_c=c,
        )
        skew = skew_indicators(window, self.region, result)
        health = cover_health(result, now, window)

        lines: List[str] = []
        lines.append("=== EnviroMeter server status ===")
        lines.append(
            f"data: {n} tuples ingested; window {c} "
            f"({skew.tuple_count} tuples)"
        )
        lines.append(
            f"skew: {skew.covered_area_fraction:.0%} of region cells sensed, "
            f"largest silence {skew.largest_gap_s / 60:.0f} min"
            + ("  [SPARSE]" if skew.is_sparse else "")
        )
        lines.append(
            f"cover: {health.n_models} models, worst region error "
            f"{health.worst_error_pct:.2f}%"
            + ("" if health.converged else "  [NOT CONVERGED]")
        )
        lines.append(
            f"validity: t_n = {health.valid_until:.0f} "
            f"(staleness {health.staleness_s / 60:.0f} min)"
            + ("  [ATTENTION]" if health.needs_attention else "")
        )
        lines.append(
            f"traffic: {service.served_values} value responses, "
            f"{service.served_covers} cover downloads"
        )
        return "\n".join(lines)
