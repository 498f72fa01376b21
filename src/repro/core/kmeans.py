"""Standard k-means on 2-D positions, from scratch.

Ad-KMN starts from "two centroids µ1 and µ2 computed by executing the
standard k-means algorithm using the positions (x_i, y_i) from W_c"
(Section 2.1), and re-runs Lloyd iterations every time it adds a centroid.
This module is that primitive: Lloyd's algorithm with k-means++ seeding,
deterministic under a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class KMeansResult:
    """Converged centroids and the induced partition."""

    centroids: np.ndarray      # (k, 2)
    labels: np.ndarray         # (n,) int
    inertia: float             # sum of squared distances to assigned centroid
    iterations: int

    @property
    def k(self) -> int:
        return len(self.centroids)


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Label of the nearest centroid for every point."""
    d2 = (
        (points[:, None, 0] - centroids[None, :, 0]) ** 2
        + (points[:, None, 1] - centroids[None, :, 1]) ** 2
    )
    return np.argmin(d2, axis=1)


def _inertia(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    diff = points - centroids[labels]
    return float(np.sum(diff * diff))


def kmeans_pp_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, 2007)."""
    n = len(points)
    seeds = np.empty((k, 2), dtype=np.float64)
    first = int(rng.integers(n))
    seeds[0] = points[first]
    d2 = np.sum((points - seeds[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(np.sum(d2))
        if total <= 0.0:
            # All remaining points coincide with a seed; duplicate it.
            seeds[j:] = seeds[j - 1]
            break
        probs = d2 / total
        choice = int(rng.choice(n, p=probs))
        seeds[j] = points[choice]
        d2 = np.minimum(d2, np.sum((points - seeds[j]) ** 2, axis=1))
    return seeds


def _update_all(
    points: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> Optional[float]:
    """Move every centroid to its cluster's mean at once, in place, and
    return the largest squared shift — or None, changing nothing, when
    the per-cluster loop must run instead.

    The bytes are the loop's: a cluster's ``mean(axis=0)`` folds its
    rows in point order from ``+0.0`` and divides by the count, which is
    what the weighted ``bincount`` does (``tests/test_core_kmeans.py``
    holds the two equal, signed zeros included).  A pass with an empty
    cluster takes the loop: its re-seed reads the centroids the same
    pass has already moved.  The shift is taken as the loop takes it, a
    running ``max`` from ``0.0`` in centroid order.
    """
    k = len(centroids)
    counts = np.bincount(labels, minlength=k)
    if not counts.all():
        return None
    sums = np.stack(
        [np.bincount(labels, weights=points[:, axis], minlength=k) for axis in (0, 1)],
        axis=1,
    )
    new = sums / counts[:, None]
    shifts = np.sum((new - centroids) ** 2, axis=1)
    centroids[:] = new
    return max(0.0, *shifts.tolist())


def lloyd(
    points: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-6,
) -> KMeansResult:
    """Lloyd iterations from explicit starting centroids.

    Empty clusters are re-seeded at the point currently farthest from its
    assigned centroid, so the returned centroid count always equals the
    requested one (as long as there are at least k distinct points).
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64, copy=True)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if centroids.ndim != 2 or centroids.shape[1] != 2:
        raise ValueError("centroids must have shape (k, 2)")
    if len(centroids) > len(points):
        raise ValueError("more centroids than points")
    labels = _assign(points, centroids)
    k = len(centroids)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        moved = _update_all(points, centroids, labels)
        if moved is None:
            moved = 0.0
            for j in range(k):
                members = points[labels == j]
                if len(members):
                    new_c = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster at the worst-served point
                    # (of the centroids updated so far this pass).
                    d2 = np.sum((points - centroids[labels]) ** 2, axis=1)
                    new_c = points[int(np.argmax(d2))]
                moved = max(moved, float(np.sum((new_c - centroids[j]) ** 2)))
                centroids[j] = new_c
        labels = _assign(points, centroids)
        if moved <= tol * tol:
            break
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=_inertia(points, centroids, labels),
        iterations=iterations,
    )


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 50,
    n_init: int = 1,
    tol: float = 1e-6,
) -> KMeansResult:
    """Full k-means: k-means++ seeding followed by Lloyd iterations.

    ``n_init`` restarts keep the best-inertia run, as in standard
    implementations.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(points):
        raise ValueError(f"k={k} exceeds the number of points ({len(points)})")
    if n_init < 1:
        raise ValueError("n_init must be at least 1")
    rng = np.random.default_rng(seed)
    best: Optional[KMeansResult] = None
    for _ in range(n_init):
        seeds = kmeans_pp_seeds(points, k, rng)
        result = lloyd(points, seeds, max_iter=max_iter, tol=tol)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best
