"""The paper's primary contribution: adaptive model covers.

* :mod:`repro.core.kmeans` — standard k-means (from scratch), the starting
  point of Ad-KMN;
* :mod:`repro.core.adkmn` — **Ad-KMN**, adaptive k-means that splits a
  cluster whenever its model's approximation error exceeds τn (Section
  2.1, Figure 2);
* :mod:`repro.core.cover` — the :class:`ModelCover` ``(t_n, µ, M)``
  abstraction with binary serialization (what the server ships to
  model-cache clients);
* :mod:`repro.core.variants` — alternative adaptive candidates (Ad-GRID
  quadtree and Ad-SPLIT bisection), standing in for "the best results
  among many candidates we designed".

A cover answers a value per query, as the paper's does; it carries no
per-prediction confidence.
"""

from repro.core.adkmn import AdKMNConfig, AdKMNResult, fit_adkmn
from repro.core.cover import ModelCover
from repro.core.kmeans import KMeansResult, kmeans
from repro.core.variants import fit_adgrid, fit_adsplit

__all__ = [
    "AdKMNConfig",
    "AdKMNResult",
    "fit_adkmn",
    "ModelCover",
    "KMeansResult",
    "kmeans",
    "fit_adgrid",
    "fit_adsplit",
]
