"""Experiment runners — one per figure of Section 4.

Each runner regenerates the rows/series of its figure and returns plain
dataclass rows; :mod:`repro.eval.report` formats them as the tables in
EXPERIMENTS.md.  Parameters default to the paper's values (5 000 point
queries, r = 1 km, τn = 2 %, H ∈ {40..240}, H = 5 000 for memory, 100
query tuples for bandwidth) but are adjustable so tests can run scaled-
down versions quickly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adkmn import AdKMNConfig, fit_adkmn
from repro.data.lausanne import LausanneDataset, generate_lausanne_dataset
from repro.data.tuples import QueryTuple, TupleBatch
from repro.data.windows import window
from repro.eval.memory import deep_sizeof_kb
from repro.eval.metrics import evaluate_accuracy
from repro.eval.timing import Timer
from repro.index.rtree import RTree
from repro.index.vptree import VPTree
from repro.network.link import GPRS, CellularLink
from repro.query.continuous import uniform_query_tuples, waypoint_trajectory
from repro.query.indexed import IndexedProcessor
from repro.query.modelcover import ModelCoverProcessor
from repro.query.naive import NaiveProcessor
from repro.query.sharded import ShardedQueryEngine
from repro.server.async_server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router

PAPER_H_VALUES = (40, 80, 120, 160, 200, 240)
PAPER_RADIUS_M = 1000.0
PAPER_TAU_N = 2.0
PAPER_N_QUERIES = 5000
PAPER_MEMORY_H = 5000
PAPER_MEMORY_RUNS = 10
PAPER_BANDWIDTH_TUPLES = 100

_DATASET_CACHE: Dict[int, LausanneDataset] = {}


def experiment_dataset(seed: int = 7) -> LausanneDataset:
    """The (cached) full-scale synthetic lausanne-data."""
    if seed not in _DATASET_CACHE:
        from repro.data.lausanne import LausanneConfig

        _DATASET_CACHE[seed] = generate_lausanne_dataset(LausanneConfig(seed=seed))
    return _DATASET_CACHE[seed]


def _query_workload(
    dataset: LausanneDataset,
    w: TupleBatch,
    n_queries: int,
    seed: int = 11,
    jitter_m: float = 100.0,
) -> List[QueryTuple]:
    """Point queries for one window.

    Positions are sampled near the sensed data (a random window tuple's
    position plus Gaussian jitter): EnviroMeter's queries come from app
    users on the street network of the monitored city, not from open
    countryside.  Times are sampled near tuple timestamps (±60 s): query
    traffic happens while the city is awake and the buses sense, not in
    the overnight gaps between windows.  Position and time are drawn from
    independent tuples, so a query is *not* pinned to a bus's location at
    its own timestamp.
    """
    rng = random.Random(seed)
    n = len(w)
    out: List[QueryTuple] = []
    for _ in range(n_queries):
        i = rng.randrange(n)
        j = rng.randrange(n)
        out.append(
            QueryTuple(
                t=float(w.t[j]) + rng.uniform(-60.0, 60.0),
                x=float(w.x[i]) + rng.gauss(0.0, jitter_m),
                y=float(w.y[i]) + rng.gauss(0.0, jitter_m),
            )
        )
    return out


def _mid_window(dataset: LausanneDataset, h: int) -> Tuple[int, TupleBatch]:
    """A representative mid-deployment window of size ``h``.

    Anchored at 10:00 on day 15, i.e. a window of contiguous in-service
    data (the paper's "H = 240 raw tuples (4 hour window)" is likewise a
    contiguous daytime window).  A window straddling the overnight service
    gap would mix two traffic regimes and degrade *every* method.
    """
    t_last = float(dataset.tuples.t[-1])
    mid_day = int(t_last // 86_400.0) // 2
    anchor_t = min(mid_day * 86_400.0 + 10.0 * 3_600.0, t_last)
    pos = int(np.searchsorted(dataset.tuples.t, anchor_t))
    c = min(pos // h, max(len(dataset.tuples) // h - 1, 0))
    return c, window(dataset.tuples, c, h)


def _processor(method: str, w: TupleBatch, radius_m: float, tau_n: float):
    if method == "naive":
        return NaiveProcessor(w, radius_m)
    if method in ("rtree", "vptree", "grid", "kdtree"):
        return IndexedProcessor(w, kind=method, radius_m=radius_m)
    if method == "adkmn":
        cfg = AdKMNConfig(tau_n_pct=tau_n)
        return ModelCoverProcessor(fit_adkmn(w, cfg).cover)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Figure 6(a): efficiency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig6aRow:
    """Elapsed seconds for ``n_queries`` point queries."""

    h: int
    method: str
    elapsed_s: float
    n_queries: int


def run_fig6a(
    dataset: Optional[LausanneDataset] = None,
    h_values: Sequence[int] = PAPER_H_VALUES,
    methods: Sequence[str] = ("adkmn", "vptree", "rtree", "naive"),
    n_queries: int = PAPER_N_QUERIES,
    radius_m: float = PAPER_RADIUS_M,
    tau_n: float = PAPER_TAU_N,
) -> List[Fig6aRow]:
    """Figure 6(a): query time vs window size, per method.

    Timing covers query processing only — index construction and model
    fitting are preparation, exactly as in the paper, which compares the
    per-query efficiency of the *methods*, not their build cost.
    """
    ds = dataset or experiment_dataset()
    rows: List[Fig6aRow] = []
    for h in h_values:
        _, w = _mid_window(ds, h)
        queries = _query_workload(ds, w, n_queries)
        for method in methods:
            proc = _processor(method, w, radius_m, tau_n)
            with Timer() as t:
                for q in queries:
                    proc.process(q)
            rows.append(
                Fig6aRow(h=h, method=method, elapsed_s=t.elapsed_s, n_queries=n_queries)
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 6(b): accuracy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig6bRow:
    """NRMSE against ground truth; ``answered`` of ``n_queries`` could be
    evaluated by the method at all."""

    h: int
    method: str
    nrmse_pct: float
    answered: int
    n_queries: int


def run_fig6b(
    dataset: Optional[LausanneDataset] = None,
    h_values: Sequence[int] = PAPER_H_VALUES,
    methods: Sequence[str] = ("adkmn", "naive"),
    n_queries: int = PAPER_N_QUERIES,
    radius_m: float = PAPER_RADIUS_M,
    tau_n: float = PAPER_TAU_N,
) -> List[Fig6bRow]:
    """Figure 6(b): NRMSE vs window size for Ad-KMN and naive.

    R-tree/VP-tree are omitted as in the paper ("they produce the same
    result as the naive method").  NRMSE is computed against the synthetic
    ground-truth field on the queries the method answers.
    """
    ds = dataset or experiment_dataset()
    rows: List[Fig6bRow] = []
    for h in h_values:
        _, w = _mid_window(ds, h)
        queries = _query_workload(ds, w, n_queries)
        for method in methods:
            proc = _processor(method, w, radius_m, tau_n)
            nrmse, answered = evaluate_accuracy(proc, queries, ds.field)
            rows.append(
                Fig6bRow(
                    h=h,
                    method=method,
                    nrmse_pct=nrmse,
                    answered=answered,
                    n_queries=n_queries,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 7(a): memory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig7aRow:
    """Average KB of the queryable structure per method."""

    method: str
    kilobytes: float
    runs: int


def run_fig7a(
    dataset: Optional[LausanneDataset] = None,
    h: int = PAPER_MEMORY_H,
    runs: int = PAPER_MEMORY_RUNS,
    tau_n: float = PAPER_TAU_N,
) -> List[Fig7aRow]:
    """Figure 7(a): memory of points vs index info vs models at H = 5000.

    As in the paper we measure, per method, the structure the query
    processor holds: (a) the stored points for naive, (b) the index
    structure for R-tree/VP-tree, (c) the fitted models + centroids for
    the model cover.  Averaged over ``runs`` windows spread across the
    deployment (the paper averages 10 independent runs).
    """
    ds = dataset or experiment_dataset()
    n_windows = len(ds.tuples) // h
    if n_windows < 1:
        raise ValueError(f"dataset too small for H={h}")
    picks = [int(i * n_windows / runs) for i in range(runs)]
    acc: Dict[str, List[float]] = {"adkmn": [], "naive": [], "rtree": [], "vptree": []}
    for c in picks:
        w = window(ds.tuples, c, h)
        # (a) naive: the complete set of points, as Python row objects
        #     (the paper's naive method scans stored tuples).
        points = [(float(w.t[i]), float(w.x[i]), float(w.y[i]), float(w.s[i]))
                  for i in range(len(w))]
        acc["naive"].append(deep_sizeof_kb(points))
        # (b) index information.
        acc["rtree"].append(deep_sizeof_kb(RTree(w.x, w.y)))
        acc["vptree"].append(deep_sizeof_kb(VPTree(w.x, w.y)))
        # (c) the models generated by the model cover method.
        cover = fit_adkmn(w, AdKMNConfig(tau_n_pct=tau_n)).cover
        acc["adkmn"].append(deep_sizeof_kb(cover))
    return [
        Fig7aRow(method=m, kilobytes=float(np.mean(v)), runs=runs)
        for m, v in acc.items()
    ]


# ---------------------------------------------------------------------------
# Figure 7(b): bandwidth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig7bRow:
    """The mobile device's traffic ledger for one technique."""

    technique: str
    sent_kb: float
    received_kb: float
    total_time_s: float
    n_queries: int


def run_fig7b(
    dataset: Optional[LausanneDataset] = None,
    n_queries: int = PAPER_BANDWIDTH_TUPLES,
    h: int = 240,
    interval_s: float = 60.0,
) -> List[Fig7bRow]:
    """Figure 7(b): baseline vs model-cache for a 100-tuple continuous
    query over a GPRS link."""
    from repro.client.baseline import BaselineClient
    from repro.client.modelcache import ModelCacheClient

    ds = dataset or experiment_dataset()
    service = EngineQueryService(
        ShardedQueryEngine(
            single_shard_router(h), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY
        ),
        method="model-cover",
    )
    service.ingest(ds.tuples)

    c, w = _mid_window(ds, h)
    t_start = float(w.t[0])
    bbox = ds.covered_bbox()
    route = [
        (bbox.min_x + 0.2 * bbox.width, bbox.min_y + 0.2 * bbox.height),
        (bbox.min_x + 0.5 * bbox.width, bbox.min_y + 0.6 * bbox.height),
        (bbox.min_x + 0.8 * bbox.width, bbox.min_y + 0.8 * bbox.height),
    ]
    traj = waypoint_trajectory(route, t_start, t_start + n_queries * interval_s)
    queries = uniform_query_tuples(traj, t_start, interval_s, n_queries)

    rows: List[Fig7bRow] = []
    for technique, client_cls in (
        ("baseline", BaselineClient),
        ("model-cache", ModelCacheClient),
    ):
        client = client_cls(service, CellularLink(GPRS))
        client.run_continuous(queries)
        rows.append(
            Fig7bRow(
                technique=technique,
                sent_kb=client.stats.sent_kb,
                received_kb=client.stats.received_kb,
                total_time_s=client.stats.total_time_s,
                n_queries=n_queries,
            )
        )
    return rows
