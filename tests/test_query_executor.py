"""Tests for repro.query.executor — grouping and scatter.

The per-window grouping and scatter compose the oracles' reference
answers, so their edge cases are load-bearing: a wrong scatter silently
swaps answers between queries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.base import BatchResult, QueryBatch
from repro.query.executor import (
    QueryGroup,
    group_queries_by_window,
    scatter_results,
)


def _group(window_c, indices, batch):
    idx = np.asarray(indices, dtype=np.int64)
    return QueryGroup(window_c, idx, batch.take(idx))


def _result_for(group, value_of):
    values = np.array([value_of(t) for t in group.queries.t])
    support = np.arange(len(values), dtype=np.int64) + 1
    return BatchResult(group.queries, values, support)


class TestScatterResults:
    def test_mismatched_group_and_result_counts_rejected(self):
        batch = QueryBatch(np.arange(3.0), np.arange(3.0), np.arange(3.0))
        groups = [_group(0, [0, 1, 2], batch)]
        with pytest.raises(ValueError, match="one result per group"):
            scatter_results(groups, [], 3)

    def test_no_groups_yields_all_unanswered(self):
        out = scatter_results([], [], 4)
        assert len(out) == 4
        assert not out.answered.any()
        assert np.all(np.isnan(out.values))

    def test_interleaved_groups_restore_stream_order(self):
        t = np.array([0.0, 10.0, 1.0, 11.0, 2.0])
        batch = QueryBatch(t, t + 100.0, t + 200.0)
        groups = [
            _group(0, [0, 2, 4], batch),
            _group(1, [1, 3], batch),
        ]
        results = [_result_for(g, lambda ti: ti * 2.0) for g in groups]
        out = scatter_results(groups, results, len(batch))
        assert np.array_equal(out.queries.t, t)
        assert np.array_equal(out.queries.x, t + 100.0)
        assert np.array_equal(out.values, t * 2.0)
        assert out.answered.all()

    def test_unanswered_positions_stay_nan(self):
        t = np.array([0.0, 1.0, 2.0])
        batch = QueryBatch(t, t, t)
        groups = [_group(0, [1], batch)]
        out = scatter_results(groups, [_result_for(groups[0], float)], 3)
        assert out.answered.tolist() == [False, True, False]
        assert np.isnan(out.values[0]) and np.isnan(out.values[2])
        assert out.values[1] == 1.0

    @given(
        windows=st.lists(
            st.integers(min_value=0, max_value=4), min_size=1, max_size=50
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_group_then_scatter_round_trip_property(self, windows):
        # Any stream, any window assignment: grouping by window and
        # scattering per-group answers back must restore stream order
        # and answer every query from its own window's function.
        arr = np.array(windows, dtype=np.int64)
        n = len(arr)
        t = np.arange(n, dtype=float) + 0.25
        batch = QueryBatch(t, t * 3.0, t * 5.0)
        groups = group_queries_by_window(
            batch, window_for_time=None, windows_for_times=lambda ts: arr
        )
        assert sorted(int(g.window_c) for g in groups) == sorted(
            set(int(w) for w in windows)
        )
        results = []
        for g in groups:
            values = g.queries.t * 10.0 + float(g.window_c)
            results.append(
                BatchResult(
                    g.queries, values, np.ones(len(values), dtype=np.int64)
                )
            )
        out = scatter_results(groups, results, n)
        assert np.array_equal(out.queries.t, batch.t)
        assert np.array_equal(out.queries.x, batch.x)
        assert np.array_equal(out.queries.y, batch.y)
        assert np.array_equal(out.values, t * 10.0 + arr)
        assert out.answered.all()
