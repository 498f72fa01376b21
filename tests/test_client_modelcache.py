"""Tests for repro.client.modelcache — the paper's Section 2.3 protocol."""

import pytest

from repro.client.baseline import BaselineClient
from repro.client.modelcache import ModelCacheClient
from repro.data.tuples import QueryTuple

from one_shard import protocol_service


@pytest.fixture()
def server(small_batch):
    srv = protocol_service(h=240, validity_horizon_s=4 * 3600.0)
    srv.ingest(small_batch)
    return srv


class TestCaching:
    def test_initial_request_fetches_cover(self, server, small_batch):
        client = ModelCacheClient(server)
        t = float(small_batch.t[100])
        value = client.query(QueryTuple(t=t, x=2000.0, y=1500.0))
        assert value is not None
        assert client.cached_cover is not None
        assert client.cache_refreshes == 1

    def test_valid_cover_answers_locally(self, server, small_batch):
        client = ModelCacheClient(server)
        t = float(small_batch.t[100])
        for i in range(20):
            client.query(QueryTuple(t=t + i * 60.0, x=2000.0, y=1500.0))
        # One model request total; the server never saw a value query.
        assert client.cache_refreshes == 1
        assert server.engine.metrics["served"].covers == 1
        assert server.engine.metrics["served"].values == 0

    def test_expired_cover_refreshes(self, server, small_batch):
        client = ModelCacheClient(server)
        t = float(small_batch.t[100])
        client.query(QueryTuple(t=t, x=0.0, y=0.0))
        t_n = client.cached_cover.valid_until
        client.query(QueryTuple(t=t_n + 1.0, x=0.0, y=0.0))
        assert client.cache_refreshes == 2

    def test_local_answers_match_cover(self, server, small_batch):
        client = ModelCacheClient(server)
        t = float(small_batch.t[100])
        q = QueryTuple(t=t, x=2100.0, y=1600.0)
        value = client.query(q)
        assert value == pytest.approx(client.cached_cover.predict(q.t, q.x, q.y))

    def test_uses_much_less_bandwidth_than_baseline(self, server, small_batch):
        t0 = float(small_batch.t[100])
        queries = [QueryTuple(t=t0 + 60.0 * i, x=2000.0, y=1500.0) for i in range(100)]
        base = BaselineClient(server)
        cache = ModelCacheClient(server)
        base.run_continuous(queries)
        cache.run_continuous(queries)
        assert base.stats.sent_bytes > 50 * cache.stats.sent_bytes
        assert base.stats.received_bytes > 10 * cache.stats.received_bytes
        assert base.stats.network_time_s > 20 * cache.stats.network_time_s
