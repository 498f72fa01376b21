#!/usr/bin/env python
"""The web interface's heatmap mode (§3, Figure 5(b)).

Builds the Ad-KMN cover for the current window, renders the centroid
"emitting points" heatmap as ASCII art to the terminal and as a PPM
image next to this script, and lists the centroid markers with their
green-to-red colours.

Run:  python examples/city_heatmap.py
"""

from pathlib import Path

import numpy as np

from repro.app.heatmap import render_ascii, render_ppm
from repro.app.webapp import WebInterface
from repro.data import generate_lausanne_dataset, LausanneConfig
from repro.geo.coords import BoundingBox
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import single_shard_router


def main() -> None:
    dataset = generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0))
    router = single_shard_router(h=500)
    router.ingest(dataset.tuples)
    web = WebInterface(ShardedQueryEngine(router))

    # Morning rush hour, when plume contrast peaks.
    t = float(dataset.tuples.t[int(np.searchsorted(dataset.tuples.t, 8.5 * 3600.0))])
    bounds = BoundingBox(0.0, 0.0, 6000.0, 4000.0)

    print("Ad-KMN centroids (the heatmap's emitting points):")
    for m in web.centroid_markers(t):
        print(
            f"  ({m.x:6.0f}, {m.y:6.0f})  {m.co2_ppm:6.0f} ppm  "
            f"{m.level.name:10s} {m.color}"
        )

    heatmap = web.heatmap(t, bounds, nx=72, ny=24)
    lo, hi = heatmap.value_range()
    print(f"\nCO2 heatmap at 08:30 ({lo:.0f}..{hi:.0f} ppm, north up):\n")
    print(render_ascii(heatmap))

    out = Path(__file__).with_name("city_heatmap.ppm")
    render_ppm(web.heatmap(t, bounds, nx=360, ny=240), out)
    print(f"\nfull-resolution image written to {out}")

    # The single-point-query mode for a clicked position.
    reading = web.point_query(t, 3000.0, 2200.0)
    print(f"\nclicked city centre: {reading.text}")


if __name__ == "__main__":
    main()
