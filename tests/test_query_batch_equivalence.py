"""Property-based equivalence of the scalar and batched execution paths.

The contract (``repro/query/README.md``): for every method, answering a
query set through ``process_batch`` must agree with answering each query
through ``process`` — same ``answered`` flags, same support counts, same
values (up to float summation order), NaN exactly where the scalar path
returns ``None``.  Randomised query sets are generated by hypothesis,
spanning the data region, its unanswerable far surroundings, and the
boundary in between.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.tuples import QueryTuple
from repro.query.base import QueryBatch, process_batch, process_batch_scalar
from repro.core.adkmn import fit_adkmn
from repro.data.windows import window, windows_for_times
from repro.query.indexed import IndexedProcessor
from repro.query.modelcover import ModelCoverProcessor
from repro.query.naive import NaiveProcessor
from repro.query.sharded import SHARDED_METHODS as METHODS


# Coordinates span well past the ~6 km x 4 km data region so naive/indexed
# methods exercise both answered and unanswered queries.
_coord = st.floats(min_value=-15_000.0, max_value=15_000.0, allow_nan=False)
_time_frac = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

_query_sets = st.lists(st.tuples(_time_frac, _coord, _coord), min_size=0, max_size=40)

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def procs(small_batch):
    """``procs(method, t)``: the ``method`` processor over the 240-tuple
    window that owns ``t``, built directly over the window."""
    built = {}

    def get(method: str, t: float):
        c = int(windows_for_times(small_batch.t, (t,), 240)[0])
        if (method, c) not in built:
            sub = window(small_batch, c, 240)
            if method == "naive":
                proc = NaiveProcessor(sub, 1000.0)
            elif method == "model-cover":
                proc = ModelCoverProcessor(fit_adkmn(sub, window_c=c).cover)
            else:
                proc = IndexedProcessor(sub, kind=method, radius_m=1000.0)
            built[method, c] = proc
        return built[method, c]

    return get


@pytest.fixture(scope="module")
def t_mid(small_batch) -> float:
    return float(small_batch.t[500])


def assert_equivalent(proc, queries: QueryBatch) -> None:
    batched = proc.process_batch(queries)
    scalar = process_batch_scalar(proc, queries)
    np.testing.assert_array_equal(batched.answered, scalar.answered)
    np.testing.assert_array_equal(batched.support, scalar.support)
    np.testing.assert_allclose(
        batched.values, scalar.values, rtol=1e-9, atol=1e-9, equal_nan=True
    )
    # Row views agree with the scalar QueryResult objects too.
    for i, res in enumerate(scalar.results()):
        row = batched.result(i)
        assert row.answered == res.answered
        assert row.support == res.support
        if res.answered:
            assert row.value == pytest.approx(
                res.value, rel=1e-9, abs=1e-9, nan_ok=True
            )
        else:
            assert row.value is None


class TestRandomisedEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @_SETTINGS
    @given(specs=_query_sets)
    def test_batch_equals_scalar(self, procs, t_mid, method, specs):
        proc = procs(method, t_mid)
        queries = QueryBatch.from_queries(
            QueryTuple(t=t_mid, x=x, y=y) for _, x, y in specs
        )
        assert_equivalent(proc, queries)

    @pytest.mark.parametrize("method", METHODS)
    @_SETTINGS
    @given(specs=_query_sets)
    def test_batch_equals_scalar_across_times(self, procs, small_batch, method, specs):
        """Timestamps vary across the stream (models see t in the maths)."""
        t0, t1 = small_batch.time_span()
        queries = QueryBatch.from_queries(
            QueryTuple(t=t0 + frac * (t1 - t0), x=x, y=y) for frac, x, y in specs
        )
        proc = procs(method, t0)
        assert_equivalent(proc, queries)


class TestEdgeCases:
    @pytest.mark.parametrize("method", METHODS)
    def test_empty_batch(self, procs, t_mid, method):
        proc = procs(method, t_mid)
        result = proc.process_batch(QueryBatch.from_queries([]))
        assert len(result) == 0
        assert result.n_answered == 0
        assert result.results() == []

    @pytest.mark.parametrize("method", METHODS)
    def test_single_query(self, procs, t_mid, method):
        proc = procs(method, t_mid)
        q = QueryTuple(t=t_mid, x=2000.0, y=1500.0)
        batched = proc.process_batch(QueryBatch.from_queries([q])).result(0)
        scalar = proc.process(q)
        assert batched.answered == scalar.answered
        assert batched.support == scalar.support
        if scalar.answered:
            assert batched.value == pytest.approx(scalar.value, rel=1e-9)

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "model-cover"])
    def test_far_queries_all_nan(self, procs, t_mid, method):
        """No raw tuple within radius -> unanswered -> NaN value slots."""
        proc = procs(method, t_mid)
        far = QueryBatch.from_queries(
            QueryTuple(t=t_mid, x=1e6 + 500.0 * i, y=-1e6) for i in range(5)
        )
        result = proc.process_batch(far)
        assert result.n_answered == 0
        assert np.all(np.isnan(result.values))
        assert np.all(result.support == 0)
        assert all(r.value is None for r in result.results())

    def test_nan_sensor_values_stay_answered(self):
        """A NaN *sensor value* in the window averages to NaN but the
        query was answered — both paths must agree on the flag (scalar
        returns value=nan, not None)."""
        from repro.data.tuples import TupleBatch
        from repro.query.indexed import IndexedProcessor
        from repro.query.naive import NaiveProcessor

        window = TupleBatch(
            np.array([0.0, 1.0, 2.0]),
            np.array([0.0, 100.0, 200.0]),
            np.array([0.0, 0.0, 0.0]),
            np.array([400.0, np.nan, 500.0]),
        )
        queries = QueryBatch.from_queries(
            [QueryTuple(t=0.0, x=50.0, y=0.0), QueryTuple(t=0.0, x=9e6, y=0.0)]
        )
        for proc in (
            NaiveProcessor(window, radius_m=1000.0),
            IndexedProcessor(window, kind="kdtree", radius_m=1000.0),
        ):
            assert_equivalent(proc, queries)
            result = proc.process_batch(queries)
            assert bool(result.answered[0]) and np.isnan(result.values[0])
            assert not result.answered[1] and result.support[1] == 0

    def test_model_cover_always_answers(self, procs, t_mid):
        proc = procs("model-cover", t_mid)
        far = QueryBatch.from_queries(
            [QueryTuple(t=t_mid, x=1e6, y=1e6), QueryTuple(t=t_mid, x=0.0, y=0.0)]
        )
        result = proc.process_batch(far)
        assert result.n_answered == 2
        assert np.all(result.support == 1)

    def test_dispatch_falls_back_to_scalar_only_processor(self, procs, t_mid):
        """process_batch() works for processors without a batched path."""

        class ScalarOnly:
            name = "scalar-only"

            def __init__(self, inner):
                self._inner = inner

            def process(self, query):
                return self._inner.process(query)

        inner = procs("naive", t_mid)
        shim = ScalarOnly(inner)
        queries = QueryBatch.from_queries(
            QueryTuple(t=t_mid, x=2000.0 + 100.0 * i, y=1500.0) for i in range(7)
        )
        via_shim = process_batch(shim, queries)
        via_inner = process_batch(inner, queries)
        np.testing.assert_array_equal(via_shim.answered, via_inner.answered)
        np.testing.assert_allclose(
            via_shim.values, via_inner.values, rtol=1e-9, equal_nan=True
        )
