"""Tests for repro.client.fleet."""

import pytest

from repro.client.fleet import FleetMember, FleetSimulator, commuter_fleet
from repro.query.subscriptions import registry_for
from repro.server.async_server import EngineQueryService

from one_shard import protocol_service


@pytest.fixture()
def server(small_batch):
    srv = protocol_service(h=240)
    srv.ingest(small_batch)
    return srv


@pytest.fixture()
def t_start(small_batch):
    return float(small_batch.t[300])


def member(name, cache=True, n_queries=20):
    return FleetMember(
        name=name,
        waypoints=((1000.0, 1000.0), (3000.0, 2500.0)),
        use_model_cache=cache,
        n_queries=n_queries,
    )


class TestFleetMember:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetMember(name="x", waypoints=((0.0, 0.0),))
        with pytest.raises(ValueError):
            member("x", n_queries=0)

    def test_queries_follow_route(self, t_start):
        qs = member("a", n_queries=5).queries(t_start)
        assert len(qs) == 5
        assert qs[0].position() == (1000.0, 1000.0)


class TestFleetSimulator:
    def test_empty_fleet_rejected(self, server, t_start):
        with pytest.raises(ValueError):
            FleetSimulator(server).run([], t_start)

    def test_duplicate_names_rejected(self, server, t_start):
        with pytest.raises(ValueError):
            FleetSimulator(server).run([member("a"), member("a")], t_start)

    def test_mixed_fleet_reports(self, server, t_start):
        fleet = [member("cache-1"), member("cache-2"), member("base-1", cache=False)]
        report = FleetSimulator(server).run(fleet, t_start)
        assert len(report.members) == 3
        assert all(m.answered == 20 for m in report.members)
        base, cache = report.stats_by_strategy()
        # One baseline member: 20 round trips; two cached members: 1 each.
        assert base.sent_messages == 20
        assert cache.sent_messages == 2

    def test_cache_traffic_sublinear_in_fleet_size(self, server, t_start, small_dataset):
        bbox = small_dataset.covered_bbox()
        small = FleetSimulator(server).run(
            commuter_fleet(2, bbox, n_queries=20), t_start
        )
        big = FleetSimulator(server).run(
            commuter_fleet(8, bbox, n_queries=20, seed=1), t_start
        )
        # Per-member cached traffic is one model download regardless of
        # fleet size; total grows linearly in members, not in queries.
        assert big.total_stats().sent_messages == 8
        assert small.total_stats().sent_messages == 2

    def test_baseline_fleet_traffic_linear_in_queries(self, server, t_start, small_dataset):
        bbox = small_dataset.covered_bbox()
        fleet = commuter_fleet(3, bbox, use_model_cache=False, n_queries=15)
        report = FleetSimulator(server).run(fleet, t_start)
        assert report.total_stats().sent_messages == 3 * 15
        assert report.server_values_served == 3 * 15

    def test_server_cover_computed_once_for_cached_fleet(
        self, server, t_start, small_dataset
    ):
        bbox = small_dataset.covered_bbox()
        FleetSimulator(server).run(commuter_fleet(5, bbox, n_queries=10), t_start)
        # Five model requests served, but only one cover fitted.
        assert server.engine.metrics["served"].covers == 5
        assert server.engine.cache_stats.misses == 1


class TestCommuterFleet:
    def test_size_and_names(self, small_dataset):
        fleet = commuter_fleet(4, small_dataset.covered_bbox())
        assert len(fleet) == 4
        assert len({m.name for m in fleet}) == 4

    def test_invalid_size(self, small_dataset):
        with pytest.raises(ValueError):
            commuter_fleet(0, small_dataset.covered_bbox())

    def test_routes_inside_bbox(self, small_dataset):
        bbox = small_dataset.covered_bbox()
        for m in commuter_fleet(6, bbox, seed=3):
            for x, y in m.waypoints:
                assert bbox.min_x <= x <= bbox.max_x
                assert bbox.min_y <= y <= bbox.max_y


class TestSubscriptionFleet:
    def test_run_subscriptions_delivers_and_prunes(self, small_batch, t_start):
        import numpy as np

        cut = int(0.8 * len(small_batch))
        engine = protocol_service(h=240).engine
        srv = EngineQueryService(
            engine, method="model-cover", subscriptions=registry_for(engine)
        )
        srv.ingest(small_batch.slice(0, cut))
        members = [
            member("tail-rider", n_queries=10),
            member("side-rider", n_queries=10),
        ]
        t_tail = float(small_batch.t[cut - 1])
        sim = FleetSimulator(srv)
        step = (len(small_batch) - cut + 2) // 3
        batches = [
            small_batch.slice(lo, min(lo + step, len(small_batch)))
            for lo in range(cut, len(small_batch), step)
        ]
        report = sim.run_subscriptions(
            members, t_tail, ingest_batches=batches
        )
        assert {m.name for m in report.members} == {"tail-rider", "side-rider"}
        assert report.maintenance_passes >= len(batches)
        # Delta maintenance re-executes at most the dirty slices, never
        # the naive every-member-every-poll total.
        naive_total = len(batches) * sum(m.n_queries for m in members)
        assert report.queries_reexecuted < naive_total
        for m in report.members:
            sub = srv.subscriptions.subscription(m.subscription_id)
            ref_v, ref_s = srv.subscriptions.reference_answers(
                sub.batch, sub.method
            )
            v, s = sub.answer()
            assert np.array_equal(v, ref_v, equal_nan=True)
            assert np.array_equal(s, ref_s)

    def test_run_subscriptions_rejects_duplicate_names(self, server, t_start):
        sim = FleetSimulator(server)
        with pytest.raises(ValueError):
            sim.run_subscriptions([member("a"), member("a")], t_start)

    def test_run_subscriptions_needs_a_registry(self, server, t_start):
        assert server.subscriptions is None
        with pytest.raises(ValueError, match="registry"):
            FleetSimulator(server).run_subscriptions([member("a")], t_start)
