#!/usr/bin/env python
"""A commuter's morning on EnviroMeter (the Android app scenario, §3).

A user opens the app during the morning commute: checks the CO2 at their
current position, records their route across town, and reads the OSHA
verdict — all over a simulated GPRS link with the model-cache strategy,
so the whole session costs one model download.

Run:  python examples/commuter_route.py
"""

import numpy as np

from repro.app.android import AndroidSession
from repro.app.settings import AppSettings
from repro.data import generate_lausanne_dataset, LausanneConfig
from repro.query.sharded import ShardedQueryEngine
from repro.server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router


def main() -> None:
    dataset = generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0))
    service = EngineQueryService(
        ShardedQueryEngine(
            single_shard_router(240), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY
        ),
        method="model-cover",
    )
    service.ingest(dataset.tuples)

    # 08:00 — the user leaves home near the gare.
    t0 = float(dataset.tuples.t[int(np.searchsorted(dataset.tuples.t, 8 * 3600.0))])
    app = AndroidSession(service, AppSettings(position_update_interval_s=60.0))
    app.set_clock(t0)
    app.update_position(1600.0, 1300.0)
    print("08:00 at the gare:", app.current_reading_text())

    # Record the commute: gare -> centre -> north-east, ~25 minutes.
    route = app.drive_route(
        waypoints=[(1600.0, 1300.0), (3000.0, 2200.0), (4600.0, 2800.0)],
        t_start=t0 + 60.0,
        duration_s=25 * 60.0,
        name="morning-commute",
    )
    print()
    print(route.summary_text())
    print(f"peak along the way: {route.peak_ppm:.0f} ppm")
    print()
    print("route markers (first 10):")
    for p in route.points[:10]:
        color = p.marker_color or "(none)"
        ppm = f"{p.co2_ppm:6.0f} ppm" if p.co2_ppm is not None else "  no data"
        print(f"  ({p.x:6.0f}, {p.y:6.0f})  {ppm}  {color}")

    stats = app.traffic
    print()
    print(
        f"session traffic: {stats.sent_kb:.2f} KB up, {stats.received_kb:.2f} KB "
        f"down in {stats.sent_messages} request(s) — the model cache answered "
        f"{len(route.points)} position updates locally"
    )


if __name__ == "__main__":
    main()
