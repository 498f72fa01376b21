"""The lane's wire bodies.

``EngineQueryService.cached`` answers with the JSON body's bytes, written
from one template over the result's columns (``_point_body``,
``_readings_body``), while ``point``/``continuous`` answer a dict that
the executor path serialises with ``json.dumps``.  Both go out on the
same socket, so the lane's bytes are held equal to ``json.dumps`` of the
handler's answer to the same request: for the floats ``repr`` writes
unusually (−0.0, subnormals, 1e16 and up, integral values) and for the
values JSON has no token for (NaN, ±inf: ``null``).
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Metrics
from repro.query.base import BatchResult, QueryBatch
from repro.server.async_server import (
    EngineQueryService,
    _point_body,
    _readings,
    _readings_body,
)

#: Finite floats whose ``repr`` is not plain digits.
_ODD = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1.5e17,
        1e22, 3.0, -7.0, 123456789.0, 0.1, 1e-5, 1.7976931348623157e308]  # fmt: skip
_finite = st.one_of(st.sampled_from(_ODD), st.floats(allow_nan=False, allow_infinity=False))
_value = st.one_of(_finite, st.sampled_from([math.nan, math.inf, -math.inf]))


class _Scripted:
    """An engine whose lanes and plan path both answer every query with
    the scripted ``values`` / ``support`` (cycled): the service shapes
    the same result either way."""

    def __init__(self, values, support):
        self.values = np.array(values, dtype=np.float64)
        self.support = np.array(support, dtype=np.int64)
        self.router = SimpleNamespace(global_count=lambda: 1)
        self.metrics = Metrics()

    def _result(self, batch):
        support = np.resize(self.support, len(batch))
        return BatchResult(batch, np.resize(self.values, len(batch)), support, support > 0)

    def cached_route(self, batch, method):
        return self._result(batch)

    def continuous_query_batch(self, batch, method):
        return self._result(batch)

    def cached_point(self, t, x, y, method):
        return self._result(QueryBatch([t], [x], [y])).result(0)

    def point_query(self, t, x, y, method):
        return self.cached_point(t, x, y, method)


def _service(values, support):
    return EngineQueryService(_Scripted(values, support), method="model-cover")


class TestReadingsBody:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(_finite, _finite, _value, st.integers(0, 2**40)), max_size=40
        )
    )
    def test_equals_json_dumps_of_the_readings(self, rows):
        """Any finite positions (the lane answers no other), any values,
        any support; an unanswered reading (support 0) reads NaN."""
        x, y, values, support = (list(col) for col in zip(*rows)) if rows else ([],) * 4
        batch = QueryBatch(np.zeros(len(rows)), np.array(x), np.array(y))
        support = np.array(support, dtype=np.int64)
        result = BatchResult(batch, np.array(values, dtype=np.float64), support, support > 0)
        assert _readings_body(result) == json.dumps(_readings(result)).encode()

    def test_every_route_length_the_lane_answers(self):
        for n in range(129):
            batch = QueryBatch(np.arange(n) * 0.5, np.arange(n) * 1e16, -np.arange(n) / 3)
            result = BatchResult(batch, np.linspace(-1.0, 1e17, n), np.ones(n, dtype=np.int64))
            assert _readings_body(result) == json.dumps(_readings(result)).encode()


class TestPointBody:
    @settings(max_examples=200, deadline=None)
    @given(value=_value, support=st.integers(0, 2**40))
    def test_equals_json_dumps_of_the_point_answer(self, value, support):
        service = _service([value], [support])
        params = {"t": 1.0, "x": 2.0, "y": 3.0}
        result = service.engine.cached_point(1.0, 2.0, 3.0, "model-cover")
        assert _point_body(result) == json.dumps(service.point(dict(params))).encode()
        assert service.cached("point", dict(params)) == json.dumps(
            service.point(dict(params))
        ).encode()


class TestServiceLane:
    """The service's ``cached`` against its own handler, request for request."""

    @pytest.mark.parametrize(
        "route",
        [
            [[-0.0, 5e-324], [1e16, 3.0]],  # waypoints are the first and last readings
            [[1000.0, 1000.0], [1000.0, 1000.0], [2500.5, -0.0]],  # a zero-length leg
            [[0.1, 0.2], [1e-5, 7.0], [-3.0, 1.5e17], [4.0, 4.0]],
        ],
    )
    def test_route_bodies(self, route):
        values = [-0.0, 5e-324, 1e16, 3.0, math.nan, math.inf, 2.5, -1e300]
        support = [1, 1, 1, 1, 0, 1, 3, 0]  # support 0: an empty owner found nothing
        service = _service(values, support)
        for updates in (1, 2, 7, 30, 128):
            params = {"route": route, "t_start": 5.0, "duration_s": 60.0, "updates": updates}
            body = service.cached("continuous", dict(params))
            assert body == json.dumps(service.continuous(dict(params))).encode()
            assert b"null" in body or updates < 5
