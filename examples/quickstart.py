#!/usr/bin/env python
"""EnviroMeter quickstart.

Generates a small community-sensed CO2 dataset, builds an adaptive model
cover with Ad-KMN, and answers a point query three ways — exactly the
pipeline of the paper's Figures 1 and 3, in ~40 lines of API use.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import AdKMNConfig, fit_adkmn
from repro.data import generate_lausanne_dataset, LausanneConfig
from repro.data.tuples import QueryTuple
from repro.data.windows import window
from repro.query import ModelCoverProcessor, NaiveProcessor
from repro.query.indexed import IndexedProcessor


def main() -> None:
    # 1. Community sensing: two buses, one day, CO2 at 20 s intervals.
    dataset = generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0))
    print(f"sensed {len(dataset)} raw tuples b_i = (t, x, y, s)")

    # 2. Take one window W_c of 240 tuples (the paper's largest H) from
    #    mid-morning and learn the adaptive model cover.
    c = int(np.searchsorted(dataset.tuples.t, 10.0 * 3600.0)) // 240
    w = window(dataset.tuples, c, 240)
    result = fit_adkmn(w, AdKMNConfig(tau_n_pct=2.0))
    cover = result.cover
    print(
        f"Ad-KMN fitted {cover.size} models in {result.rounds} round(s); "
        f"worst region error {result.worst_error_pct:.2f}% (tau_n = 2%)"
    )
    print(f"serialized cover: {cover.wire_size_bytes()} bytes "
          f"(vs {len(w) * 4 * 8} bytes of raw tuples)")

    # 3. Answer the same point query with all three methods of §2.2.
    q = QueryTuple(t=float(w.t[120]), x=2200.0, y=1700.0)
    for proc in (
        NaiveProcessor(w, radius_m=1000.0),
        IndexedProcessor(w, kind="rtree", radius_m=1000.0),
        ModelCoverProcessor(cover),
    ):
        res = proc.process(q)
        shown = f"{res.value:7.1f} ppm" if res.answered else "   no data"
        print(f"  {proc.name:12s} -> {shown}   (support: {res.support} tuples)")

    truth = dataset.field.value(q.t, q.x, q.y)
    print(f"  {'ground truth':12s} -> {truth:7.1f} ppm")


if __name__ == "__main__":
    main()
