"""The engine's counter registry (:mod:`repro.obs`) and ``GET /metrics``.

The scrape is exercised over a real socket (:class:`BackgroundServer` on
an ephemeral 127.0.0.1 port); the counts it reports are the engine's
blocks, read in process.
"""

import http.client
import json
import sys
import threading

import numpy as np
import pytest

import repro.query.sharded as sharded_module
from repro.data.tuples import TupleBatch
from repro.obs import Counters, Metrics
from repro.query.base import QueryBatch
from repro.server.async_server import BackgroundServer, EngineQueryService
from repro.stack import StackConfig, build
from repro.storage.shards import StaleLayoutError

from one_shard import one_shard_engine, protocol_service

# The server's loop and worker threads joined, its sockets closed, the
# durable store's files released.
pytestmark = pytest.mark.usefixtures("leak_check")


def _request(port, method, path, payload=None):
    """``(status, body bytes)`` of one request on a fresh connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _scrape(port) -> bytes:
    status, body = _request(port, "GET", "/metrics")
    assert status == 200
    return body


class TestRegistry:
    def test_render_is_every_block_sorted_with_joined_labels(self):
        metrics = Metrics()
        metrics.block("b", ("x", "a")).bump("x", 2)
        metrics.block("a").bump(("point", "cover"))
        metrics.read("c", lambda: {"z": 1, "y": 0})
        assert metrics.render() == (
            b'{"a": {"point/cover": 1}, "b": {"a": 0, "x": 2}, "c": {"y": 0, "z": 1}}'
        )
        assert metrics["a"].as_dict() == {("point", "cover"): 1}
        assert metrics["b"].x == 2
        with pytest.raises(AttributeError):
            metrics["b"].never

    def test_a_name_is_one_block(self):
        metrics = Metrics()
        assert metrics.block("a") is metrics.block("a", ("n",))

    def test_concurrent_bumps_lose_nothing(self):
        block = Counters(("n",))

        def bump():
            for _ in range(2000):
                block.bump("n")
                block.bump_all(n=1, m=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert block.as_dict() == {"n": 8 * 2000 * 2, "m": 8 * 2000 * 2}


class TestScrape:
    def test_a_scrape_is_the_engines_blocks(self, small_batch):
        """A point lane hit, a route lane decline and a cache miss, then
        one scrape: the blocks read in process, byte for byte what the
        registry renders.  An idle server scrapes the same bytes twice."""
        t = float(small_batch.t[500])
        engine = one_shard_engine(small_batch, h=240)
        service = EngineQueryService(engine, method="model-cover")
        with BackgroundServer(service) as served:
            point = {"t": t, "x": 2000.0, "y": 1500.0}
            for _ in range(2):  # a cold cover (declined, fitted), then the hit
                assert _request(served.port, "POST", "/query/point", point)[0] == 200
            route = {
                "route": [[1000.0, 1000.0], [3000.0, 2000.0]],
                "t_start": float(small_batch.t[3000]),
                "duration_s": 60.0,
                "updates": 8,
            }
            assert _request(served.port, "POST", "/query/continuous", route)[0] == 200
            scraped = _scrape(served.port)
            assert _scrape(served.port) == scraped
            assert _request(served.port, "GET", "/health")[0] == 200
            assert _scrape(served.port) == scraped
        blocks = json.loads(scraped)
        assert blocks == engine.metrics.as_dict()
        assert scraped == engine.metrics.render()
        assert blocks["lane_hits"] == engine.metrics["lane_hits"].as_dict() == {"point": 1}
        assert blocks["lane_declines"] == {"point/cover": 1, "route/cover": 1}
        assert engine.metrics["lane_declines"].as_dict()["route", "cover"] == 1
        assert blocks["cache"] == engine.cache_stats.as_dict()
        assert blocks["cache"]["misses"] >= 2  # the point's cover and the route's
        assert blocks["cache"]["hits"] >= 1
        assert blocks["prune"]["plans"] == 2  # the two requests the lanes declined

    def test_a_pool_fallback_shows_under_its_reason(self, small_dataset, tmp_path):
        """A pooled engine over a durable tiered store cannot export
        shard prefixes, so every exact plan runs in process: counted
        under that reason, beside the store's own counters."""
        config = StackConfig(shards=2, h=240, processes=2, data_dir=tmp_path / "tier")
        tuples = small_dataset.tuples.slice(0, 1500)
        with build(config, small_dataset.covered_bbox(), tuples) as stack:
            with BackgroundServer(stack.service) as served:
                point = {"t": float(tuples.t[700]), "x": 2000.0, "y": 1500.0}
                assert _request(served.port, "POST", "/query/point", point)[0] == 200
                blocks = json.loads(_scrape(served.port))
            assert blocks["pool_fallbacks"] == {
                "router does not export contiguous shard prefixes": 1
            }
            assert blocks["tier"] == stack.router.tier_stats()
            assert stack.engine.pool._workers == [None, None]  # none started


class TestSilentFallbacksAreCounted:
    def test_each_rejected_ingest_bumps_its_reason_once(self, small_batch):
        """A non-finite position and a re-ingested old row: each batch
        still raises and changes nothing, and counts once under the
        first clause of its error."""
        service = protocol_service(h=240)
        router = service.engine.router
        service.ingest(small_batch.slice(0, 500))
        rejects = service.engine.metrics["ingest_rejects"]
        good = small_batch.slice(500, 510)
        x = good.x.copy()
        x[3] = np.nan
        non_finite = TupleBatch(good.t, x, good.y, good.s)
        with pytest.raises(ValueError, match="non-finite position"):
            service.ingest(non_finite)
        assert rejects.as_dict() == {"ingest batch has a non-finite position": 1}
        with pytest.raises(ValueError, match="last accepted"):
            service.ingest(small_batch.slice(0, 5))
        assert rejects.as_dict() == {
            "ingest batch has a non-finite position": 1,
            "ingest batch starts before the last accepted timestamp": 1,
        }
        assert router.global_count() == 500
        assert service.ingest(good) == 10  # an accepted batch counts nothing
        assert len(rejects.as_dict()) == 2 and sum(rejects.as_dict().values()) == 2

    def test_each_stale_layout_re_pin_is_counted(self, small_batch, monkeypatch):
        engine = one_shard_engine(small_batch, h=240)
        queries = QueryBatch(
            np.array([float(small_batch.t[500])]), np.array([2000.0]), np.array([1500.0])
        )
        real_build = sharded_module.build_sharded_plan
        raised = []

        def build_once_stale(*args, **kwargs):
            if not raised:
                raised.append(1)
                raise StaleLayoutError("re-cut")
            return real_build(*args, **kwargs)

        monkeypatch.setattr(sharded_module, "build_sharded_plan", build_once_stale)
        expected = engine.plan(queries, "naive")
        assert engine.metrics["layout_repins"].as_dict() == {"plan": 1}

        real_execute = engine.execute
        executed = []

        def execute_once_stale(plan, report=None):
            if not executed:
                executed.append(1)
                raise StaleLayoutError("re-cut")
            return real_execute(plan, report)

        monkeypatch.setattr(engine, "execute", execute_once_stale)
        result = engine.continuous_query_batch(queries, "naive")
        assert result.values.tobytes() == real_execute(expected).values.tobytes()
        assert engine.metrics["layout_repins"].as_dict() == {
            "plan": 1,
            "continuous_query_batch": 1,
        }
