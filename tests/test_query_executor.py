"""Tests for repro.query.executor — grouping, scatter, the pool.

The per-window grouping and scatter compose the oracles' reference
answers, and the pool sits under the plan executor's fan-out, so their
edge cases are load-bearing: a wrong scatter silently swaps answers
between queries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.base import BatchResult, QueryBatch
from repro.query.executor import (
    BatchExecutor,
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


class TestBatchExecutorSizing:
    """The pool sizes itself from the CPUs it may run on, once."""

    def test_one_usable_cpu_never_creates_a_pool(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)  # affinity wins
        executor = BatchExecutor()
        assert executor.workers_for(100) == 1
        assert executor.map(lambda v: v * 2, list(range(10))) == list(range(0, 20, 2))
        assert executor._pool is None

    def test_affinity_is_read_at_construction_only(self, monkeypatch):
        calls = []

        def affinity(pid):
            calls.append(pid)
            return {0, 1, 2}

        monkeypatch.setattr("os.sched_getaffinity", affinity, raising=False)
        executor = BatchExecutor()
        try:
            for _ in range(3):
                assert executor.map(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
            assert executor.workers_for(100) == 3
        finally:
            executor.shutdown()
        assert calls == [0]

    def test_max_workers_still_wins(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        executor = BatchExecutor(max_workers=4)
        assert executor.workers_for(100) == 4
        assert executor.workers_for(2) == 2

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        assert BatchExecutor().workers_for(100) == 5
