"""Tests for repro.query.subscriptions — standing queries with
epoch-delta maintenance.

The load-bearing test is the replay oracle (golden-oracle discipline):
rebuild every subscription's answer purely from its pushed update
stream, and at each delivered update compare byte-for-byte against a
from-scratch backend over exactly the row prefix the update was pinned
at.  If maintenance ever skips a dirty slice, fast-forwards a mark, or
serves a torn snapshot, the reconstruction diverges.
"""

import threading

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.sharded import ShardedQueryEngine
from repro.query.subscriptions import (
    SubscriptionRegistry,
    SubscriptionSpec,
    registry_for,
)
from repro.storage.shards import ShardRouter
from repro.storage.tiered import TieredShardRouter

from one_shard import grow, one_shard_engine, protocol_service

#: Subscriptions open engines, tiered routers and threads: none
#: may leak a descriptor or a thread.
pytestmark = pytest.mark.usefixtures("leak_check")

H = 240
KINDS = ("engine", "sharded-engine", "server")
# The server only serves model-cover answers; engines get an exact method
# so the sketch-pruned path is exercised too.
METHOD = {"engine": "naive", "sharded-engine": "naive", "server": "model-cover"}


def _bbox(batch, pad=500.0):
    return BoundingBox(
        float(batch.x.min()) - pad,
        float(batch.y.min()) - pad,
        float(batch.x.max()) + pad,
        float(batch.y.max()) + pad,
    )


def _route_near(batch, d=300.0):
    xm, ym = float(np.mean(batch.x)), float(np.mean(batch.y))
    return [(xm - d, ym - d), (xm + d, ym + d)]


def _fresh(kind, batch, bbox):
    if kind == "engine":
        return one_shard_engine(batch, h=H)
    if kind == "sharded-engine":
        router = ShardRouter(RegionGrid(bbox, nx=2, ny=2), h=H)
        router.ingest(batch)
        return ShardedQueryEngine(router)
    srv = protocol_service(h=H)
    srv.ingest(batch)
    return srv.engine


def _reference(kind, batch, hi, bbox, query_batch, method):
    """From-scratch answers over exactly the first ``hi`` rows."""
    reg = registry_for(_fresh(kind, batch.slice(0, hi), bbox))
    return reg.reference_answers(query_batch, method)


def _replay(sub, updates, kind, batch, bbox):
    """Rebuild the answer from the update stream, checking every
    delivered epoch against the from-scratch oracle."""
    state_v = sub.initial.values.copy()
    state_s = sub.initial.support.copy()
    seq = sub.initial.seq
    for u in sorted(updates, key=lambda u: u.seq):
        assert u.seq == seq + 1, "updates must arrive gap-free and in order"
        seq = u.seq
        state_v[u.indices] = u.values
        state_s[u.indices] = u.support
        ref_v, ref_s = _reference(
            kind, batch, u.rows, bbox, sub.spec.query_batch(), sub.method
        )
        assert np.array_equal(state_v, ref_v, equal_nan=True), (
            f"{kind}: values diverge at seq {u.seq} (rows {u.rows})"
        )
        assert np.array_equal(state_s, ref_s), (
            f"{kind}: support diverges at seq {u.seq} (rows {u.rows})"
        )
    return state_v, state_s


class TestRegistryBasics:
    def test_initial_answer_matches_reference(self, small_batch):
        engine = one_shard_engine(small_batch, h=H)
        reg = registry_for(engine)
        sub = reg.subscribe(
            _route_near(small_batch),
            float(small_batch.t[1000]),
            interval_s=60.0,
            count=10,
            method="naive",
        )
        ref_v, ref_s = reg.reference_answers(sub.spec.query_batch(), "naive")
        assert np.array_equal(sub.initial.values, ref_v, equal_nan=True)
        assert np.array_equal(sub.initial.support, ref_s)
        assert sub.initial.kind == "initial"
        assert sub.initial.seq == 0
        # Something is answered on a route through the data's centroid.
        assert np.isfinite(sub.initial.values).any()

    def test_quiet_pass_is_cheap_and_delivers_nothing(self, small_batch):
        reg = registry_for(one_shard_engine(small_batch, h=H))
        sub = reg.subscribe(
            _route_near(small_batch), float(small_batch.t[1000]), method="naive"
        )
        assert reg.maintain() == []
        before = reg.stats.quiet_passes
        assert reg.poll(sub.id) == []
        assert reg.stats.quiet_passes == before + 1
        assert reg.stats.queries_reexecuted == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SubscriptionSpec(route=((0.0, 0.0),), t_start=0.0)
        with pytest.raises(ValueError):
            SubscriptionSpec(
                route=((0.0, 0.0), (1.0, 1.0)), t_start=0.0, interval_s=0.0
            )
        with pytest.raises(ValueError):
            SubscriptionSpec(
                route=((0.0, 0.0), (1.0, 1.0)), t_start=0.0, count=0
            )

    @pytest.mark.parametrize(
        "field",
        [
            {"t_start": float("nan")},
            {"t_start": float("inf")},
            {"interval_s": float("nan")},
            {"interval_s": float("inf")},
            {"route": ((0.0, 0.0), (float("nan"), 1.0))},
            {"route": ((float("-inf"), 0.0), (1.0, 1.0))},
            {"count": 2.5},
            {"count": True},
        ],
        ids=lambda field: "-".join(f"{k}={v!r}" for k, v in field.items()),
    )
    def test_spec_rejects_non_finite_and_non_integer_input(
        self, field, small_batch
    ):
        """``/ws`` rejects these with a 400; the in-process API used to
        register them (a NaN interval gave NaN query times answered from
        the stream head, unstable forever; ``count=2.5`` failed deep in
        the query-batch builder and ``count=True`` meant one query)."""
        fields = {"route": ((0.0, 0.0), (1.0, 1.0)), "t_start": 0.0}
        fields.update(field)
        with pytest.raises(ValueError):
            SubscriptionSpec(**fields)
        reg = registry_for(one_shard_engine(small_batch, h=H))
        with pytest.raises(ValueError):
            reg.subscribe(method="naive", **fields)
        assert len(reg) == 0

    def test_spec_accepts_numpy_integer_count(self):
        spec = SubscriptionSpec(
            route=((0.0, 0.0), (1.0, 1.0)), t_start=0.0, count=np.int64(3)
        )
        assert len(spec.query_batch()) == 3

    def test_unknown_method_rejected(self, small_batch):
        reg = registry_for(one_shard_engine(small_batch, h=H))
        with pytest.raises(ValueError):
            reg.subscribe(
                _route_near(small_batch),
                float(small_batch.t[0]),
                method="teleport",
            )

    def test_unregister_stops_delivery(self, small_batch):
        cut = int(0.7 * len(small_batch))
        engine = one_shard_engine(small_batch.slice(0, cut), h=H)
        reg = registry_for(engine)
        sub = reg.subscribe(
            _route_near(small_batch), float(small_batch.t[cut - 1]), method="naive"
        )
        reg.unregister(sub.id)
        grow(engine, small_batch, len(small_batch))
        assert reg.maintain() == []
        with pytest.raises(KeyError):
            reg.poll(sub.id)

    def test_registry_for_takes_an_engine(self, small_batch):
        server = protocol_service(h=H)
        server.ingest(small_batch)
        registry = registry_for(server.engine)
        assert isinstance(registry, SubscriptionRegistry)
        sub = registry.subscribe(
            _route_near(small_batch), float(small_batch.t[1000]), method=server.method
        )
        assert sub.method == "model-cover"
        values, _ = sub.answer()
        want = server.engine.continuous_query_batch(sub.batch, method="model-cover")
        np.testing.assert_array_equal(values, want.values)
        with pytest.raises(TypeError):
            registry_for(object())
        with pytest.raises(TypeError):  # a service is not unwrapped
            registry_for(server)


class TestMaintenancePruning:
    def test_sealed_window_subscription_ignores_tail_ingest(self, small_batch):
        cut = int(0.7 * len(small_batch))
        engine = one_shard_engine(small_batch.slice(0, cut), h=H)
        reg = registry_for(engine)
        sub = reg.subscribe(
            _route_near(small_batch),
            float(small_batch.t[300]),
            interval_s=60.0,
            count=10,
            method="naive",
        )
        for hi in (cut + 400, cut + 800, len(small_batch)):
            grow(engine, small_batch, hi)
            reg.maintain()
        # Tail-only ingest never touches the early windows this route
        # lives in: the mark diff prunes it before any execution.
        assert reg.stats.queries_reexecuted == 0
        assert reg.poll(sub.id, maintain=False) == []
        ref_v, ref_s = reg.reference_answers(sub.spec.query_batch(), "naive")
        v, s = sub.answer()
        assert np.array_equal(v, ref_v, equal_nan=True)
        assert np.array_equal(s, ref_s)

    def test_tail_subscription_receives_deltas(self, small_batch):
        cut = int(0.7 * len(small_batch))
        engine = one_shard_engine(small_batch.slice(0, cut), h=H)
        reg = registry_for(engine)
        sub = reg.subscribe(
            _route_near(small_batch),
            float(small_batch.t[cut - 1]),
            interval_s=60.0,
            count=12,
            method="naive",
        )
        grow(engine, small_batch, len(small_batch))
        updates = reg.poll(sub.id)
        assert updates, "tail ingest must dirty a tail-time subscription"
        assert reg.stats.queries_reexecuted > 0
        assert all(u.kind == "delta" for u in updates)

    def test_sketch_prunes_spatially_disjoint_ingest(self):
        rng = np.random.default_rng(3)
        n = 60
        base = TupleBatch(
            np.linspace(0.0, 600.0, n),
            rng.uniform(0.0, 100.0, n),
            rng.uniform(0.0, 100.0, n),
            rng.uniform(400.0, 500.0, n),
        )
        engine = one_shard_engine(base, h=1000, radius_m=200.0)
        reg = registry_for(engine)
        sub = reg.subscribe(
            [(0.0, 0.0), (100.0, 100.0)],
            0.0,
            interval_s=60.0,
            count=5,
            method="naive",
        )
        # Same (single) time window, but 10 km away: the window's mark
        # moves, and the delta sketch proves no query disk can reach the
        # new points — all five queries skipped, nothing re-executed.
        far = TupleBatch(
            np.linspace(601.0, 900.0, 20),
            rng.uniform(10_000.0, 10_100.0, 20),
            rng.uniform(10_000.0, 10_100.0, 20),
            rng.uniform(400.0, 500.0, 20),
        )
        engine.router.ingest(far)
        assert reg.poll(sub.id) == []
        assert reg.stats.queries_skipped_sketch == 5
        assert reg.stats.queries_reexecuted == 0
        ref_v, ref_s = reg.reference_answers(sub.spec.query_batch(), "naive")
        v, s = sub.answer()
        assert np.array_equal(v, ref_v, equal_nan=True)
        assert np.array_equal(s, ref_s)


class TestReplayOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_stepwise_ingest_stream_is_byte_identical(self, kind, small_batch):
        batch = small_batch
        bbox = _bbox(batch)
        cut = int(0.7 * len(batch))
        backend = _fresh(kind, batch.slice(0, cut), bbox)
        reg = registry_for(backend)
        method = METHOD[kind]
        subs = [
            # One standing query at the moving tail, one over long-sealed
            # early windows.
            reg.subscribe(
                _route_near(batch),
                float(batch.t[cut - 1]),
                interval_s=60.0,
                count=12,
                method=method,
            ),
            reg.subscribe(
                _route_near(batch, d=200.0),
                float(batch.t[300]),
                interval_s=60.0,
                count=8,
                method=method,
            ),
        ]
        collected = {s.id: [] for s in subs}
        step = (len(batch) - cut + 3) // 4
        for hi in range(cut + step, len(batch) + step, step):
            hi = min(hi, len(batch))
            grow(backend, batch, hi)
            reg.maintain()
            for s in subs:
                collected[s.id].extend(reg.poll(s.id, maintain=False))
        for s in subs:
            state_v, state_s = _replay(s, collected[s.id], kind, batch, bbox)
            # The reconstructed stream lands exactly on the live answer.
            v, sup = s.answer()
            assert np.array_equal(state_v, v, equal_nan=True)
            assert np.array_equal(state_s, sup)
            # ... which is the from-scratch answer over the full stream.
            ref_v, ref_s = _reference(
                kind, batch, len(batch), bbox, s.spec.query_batch(), s.method
            )
            assert np.array_equal(v, ref_v, equal_nan=True)
            assert np.array_equal(sup, ref_s)

    @pytest.mark.parametrize("kind", KINDS)
    def test_free_running_writer(self, kind, small_batch):
        """A writer thread grows the backend while the reader polls
        concurrently.  Every pass pins an exact snapshot, so every
        delivered update must be byte-identical to from-scratch execution
        at its pinned row count."""
        batch = small_batch
        bbox = _bbox(batch)
        cut = int(0.6 * len(batch))
        backend = _fresh(kind, batch.slice(0, cut), bbox)
        reg = registry_for(backend)
        sub = reg.subscribe(
            _route_near(batch),
            float(batch.t[cut - 1]),
            interval_s=60.0,
            count=12,
            method=METHOD[kind],
        )

        def write():
            n = cut
            while n < len(batch):
                n = min(n + 251, len(batch))
                grow(backend, batch, n)

        writer = threading.Thread(target=write)
        writer.start()
        updates = []
        while writer.is_alive():
            updates.extend(reg.poll(sub.id))
        writer.join()
        updates.extend(reg.poll(sub.id))
        assert updates, "the growing tail must reach the subscription"
        _replay(sub, updates, kind, batch, bbox)
        ref_v, ref_s = _reference(
            kind, batch, len(batch), bbox, sub.spec.query_batch(), sub.method
        )
        v, s = sub.answer()
        assert np.array_equal(v, ref_v, equal_nan=True)
        assert np.array_equal(s, ref_s)


class TestColdShardSubscription:
    def test_cold_shard_subscription_follows_data(self, small_batch):
        """A model-cover subscription over a shard with no rows yet picks
        the data up once that shard's region gets some."""
        batch = small_batch
        b = _bbox(batch, pad=10.0)
        width = b.max_x - b.min_x
        # Two columns: all real data in the left cell, the right one cold.
        grid = RegionGrid(
            BoundingBox(b.min_x, b.min_y, b.max_x + width, b.max_y), nx=2, ny=1
        )
        router = ShardRouter(grid, h=H)
        router.ingest(batch)
        assert router.shard_counts()[1] == 0
        reg = registry_for(ShardedQueryEngine(router))
        xm = float(np.mean(batch.x)) + width
        ym = float(np.mean(batch.y))
        sub = reg.subscribe(
            [(xm - 300.0, ym - 300.0), (xm + 300.0, ym + 300.0)],
            float(batch.t[-1]),
            interval_s=60.0,
            count=8,
            method="model-cover",
        )
        # Data arrives in the cold region: the stream's last 600 rows,
        # shifted east and on past the end of the stream.
        tail = batch.slice(len(batch) - 600, len(batch))
        shifted = TupleBatch(
            tail.t - tail.t[0] + batch.t[-1] + 1.0, tail.x + width, tail.y, tail.s
        )
        router.ingest(shifted)
        assert reg.poll(sub.id), "the cold shard's new rows must reach it"
        fresh = ShardRouter(grid, h=H)
        fresh.ingest(batch)
        fresh.ingest(shifted)
        ref_v, ref_s = registry_for(ShardedQueryEngine(fresh)).reference_answers(
            sub.spec.query_batch(), "model-cover"
        )
        v, s = sub.answer()
        assert np.array_equal(v, ref_v, equal_nan=True)
        assert np.array_equal(s, ref_s)
        # The subscription now actually reads the new region.
        assert np.isfinite(v).any()


class TestTieredStoreMarks:
    def test_open_window_growth_faults_no_cold_window(self, small_batch, tmp_path):
        """Marks on a router are unpinned reads: a pass in which only the
        open window grew checks every registered window without faulting
        one in from its segment file, and a quiet pass pins nothing."""
        batch = small_batch
        grid = RegionGrid(_bbox(batch), nx=2, ny=2)
        router = TieredShardRouter(
            grid, h=H, data_dir=tmp_path / "tier", memory_windows=1,
            wal_sync=False,
        )
        try:
            # Stop 10 rows into a window, so the next ingest only grows it.
            cut = (len(batch) // H - 1) * H + 10
            router.ingest(batch.slice(0, cut))
            engine = ShardedQueryEngine(router)
            bindings = []

            def recording_binding(binding=engine.binding):
                bindings.append(binding())
                return bindings[-1]

            engine.binding = recording_binding
            reg = registry_for(engine)
            t0, t1 = float(batch.t[0]), float(batch.t[cut - 1])
            # One route sampled across the whole stream, one at the tail.
            reg.subscribe(
                _route_near(batch), t0, interval_s=(t1 - t0) / 23, count=23,
                method="naive",
            )
            reg.subscribe(_route_near(batch), t1, count=10, method="naive")
            stats = reg.stats
            quiet, checked = stats.quiet_passes, stats.keys_checked
            faults = router.faults
            router.ingest(batch.slice(cut, cut + 50))
            reg.maintain()
            assert stats.quiet_passes == quiet
            assert stats.keys_checked - checked >= 20
            assert router.faults == faults
            reg.maintain()
            assert stats.quiet_passes == quiet + 1
            assert bindings[-1]._memo == {}
            assert router.faults == faults
        finally:
            router.close()
