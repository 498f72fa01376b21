"""Tests for repro.client.baseline."""

import pytest

from repro.client.baseline import BaselineClient
from repro.data.tuples import QueryTuple
from repro.network.link import GPRS, CellularLink
from repro.network.protocol import FRAME_OVERHEAD_BYTES

from one_shard import protocol_service


@pytest.fixture()
def server(small_batch):
    srv = protocol_service(h=240)
    srv.ingest(small_batch)
    return srv


class TestQuerying:
    def test_returns_value(self, server, small_batch):
        client = BaselineClient(server)
        t = float(small_batch.t[100])
        value = client.query(QueryTuple(t=t, x=2000.0, y=1500.0))
        assert value is not None
        assert 200.0 < value < 1500.0

    def test_one_round_trip_per_query(self, server, small_batch):
        client = BaselineClient(server)
        t = float(small_batch.t[100])
        for i in range(5):
            client.query(QueryTuple(t=t + i, x=2000.0, y=1500.0))
        assert client.stats.sent_messages == 5
        assert client.stats.received_messages == 5
        assert server.engine.metrics["served"].values == 5

    def test_traffic_includes_framing(self, server, small_batch):
        client = BaselineClient(server)
        t = float(small_batch.t[100])
        client.query(QueryTuple(t=t, x=0.0, y=0.0))
        assert client.stats.sent_bytes == 25 + FRAME_OVERHEAD_BYTES

    def test_network_time_accumulates(self, server, small_batch):
        link = CellularLink(GPRS)
        client = BaselineClient(server, link)
        t = float(small_batch.t[100])
        client.query(QueryTuple(t=t, x=0.0, y=0.0))
        # At least one full RTT.
        assert client.stats.network_time_s >= GPRS.rtt_s

    def test_run_continuous(self, server, small_batch):
        client = BaselineClient(server)
        t0 = float(small_batch.t[100])
        queries = [QueryTuple(t=t0 + 60 * i, x=2000.0, y=1500.0) for i in range(10)]
        values = client.run_continuous(queries)
        assert len(values) == 10
        assert client.stats.sent_messages == 10
