#!/usr/bin/env python
"""A day of platform operations.

The operator's view of EnviroMeter: replay a day of community-sensed
data into the server as it would arrive from the buses, screen each
delivery for sensor faults, watch the dashboard as covers get built
lazily, and ask where the next sensor should go (the widest-uncertainty
region).

Run:  python examples/operations_day.py
"""

import numpy as np

from repro.app.dashboard import Dashboard
from repro.core.adkmn import AdKMNConfig, fit_adkmn
from repro.core.confidence import ConfidenceCover
from repro.data import generate_lausanne_dataset, LausanneConfig
from repro.data.quality import QualityConfig, screen_window
from repro.data.tuples import TupleBatch
from repro.query.sharded import ShardedQueryEngine
from repro.server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService
from repro.storage.shards import single_shard_router
from repro.server.stream import StreamReplayer


def inject_faults(batch: TupleBatch, seed: int = 3) -> TupleBatch:
    """Corrupt ~1 % of the day's readings the way real boxes fail:
    stuck ADCs, GPS glitches, uplink retries."""
    rng = np.random.default_rng(seed)
    t = batch.t.copy(); t.flags.writeable = True
    x = batch.x.copy(); x.flags.writeable = True
    y = batch.y.copy(); y.flags.writeable = True
    s = batch.s.copy(); s.flags.writeable = True
    n = len(batch)
    for i in rng.choice(n, size=n // 300, replace=False):
        s[i] = -5.0                      # stuck sensor
    for i in rng.choice(n, size=n // 300, replace=False):
        x[i] = -20_000.0                 # GPS glitch
    for i in rng.choice(n, size=n // 300, replace=False):
        s[i] = s[i] + 4_000.0            # transient spike
    return TupleBatch(t, x, y, s)


def main() -> None:
    dataset = generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0))
    dirty = inject_faults(dataset.tuples)

    # Screen the stream before it reaches the modeling pipeline.
    clean, report = screen_window(dirty, QualityConfig(), region=dataset.region)
    print(
        f"quality screen: {report.total} tuples in, {report.kept} kept — "
        f"rejected {report.out_of_range} out-of-range, "
        f"{report.out_of_region} off-region, {report.spikes} spikes, "
        f"{report.duplicates} duplicates "
        f"({report.rejection_rate:.1%} rejection rate)"
    )

    # Replay the clean stream into the server in 15-minute deliveries,
    # with an app user querying every 2 hours (forcing lazy cover builds).
    service = EngineQueryService(
        ShardedQueryEngine(
            single_shard_router(240), cache_capacity=DEFAULT_COVER_CACHE_CAPACITY
        ),
        method="model-cover",
    )
    replayer = StreamReplayer(service, batch_interval_s=900.0)
    stats = replayer.run(clean, query_every_s=2 * 3600.0)
    print(
        f"\nreplayed {stats.tuples} tuples in {stats.batches} deliveries; "
        f"{stats.covers_built} covers built lazily for "
        f"{service.served_values} user queries; "
        f"{stats.windows_sealed} windows sealed"
    )

    # The dashboard at end of day.
    now = stats.final_time
    print("\n" + Dashboard(service, dataset.region).render(now))

    # Where should the next sensor go?  The widest-uncertainty region.
    router = service.engine.router
    c = int(router.windows_for_times((now,))[0])
    w = router.shard_window(0, c)  # zero-copy view of W_c
    result = fit_adkmn(w, AdKMNConfig(), window_c=c)
    conf = ConfidenceCover(result, w)
    k = conf.worst_region()
    cx, cy = result.cover.centroids[k]
    print(
        f"\nsensing gap: region {k} around ({cx:.0f}, {cy:.0f}) has the "
        f"widest residual spread ({conf.region_std(k):.1f} ppm) — "
        f"route the next sensor-equipped bus there."
    )


if __name__ == "__main__":
    main()
