"""Tests for repro.data.windows."""

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.data.windows import (
    WindowSpec,
    count_windows,
    iter_windows,
    sealed_window_count,
    touched_windows,
    window,
)


def make_batch(n, dt=60.0):
    t = np.arange(n) * dt
    return TupleBatch(t, np.zeros(n), np.zeros(n), np.full(n, 400.0))


class TestCountWindows:
    def test_exact_division(self):
        batch = make_batch(120)
        assert count_windows(batch, 40) == 3

    def test_remainder(self):
        assert count_windows(make_batch(100), 40) == 3

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            count_windows(make_batch(10), 0)


class TestWindow:
    def test_slices(self):
        batch = make_batch(100)
        w1 = window(batch, 1, 40)
        assert len(w1) == 40
        assert w1.t[0] == 40 * 60.0

    def test_zero_copy(self):
        batch = make_batch(10)
        assert window(batch, 1, 4).is_view_of(batch)

    def test_last_window_short(self):
        batch = make_batch(100)
        assert len(window(batch, 2, 40)) == 20

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            window(make_batch(100), 3, 40)

    def test_negative_c(self):
        with pytest.raises(ValueError):
            window(make_batch(10), -1, 5)

    def test_iter_windows_covers_everything(self):
        batch = make_batch(100)
        pieces = list(iter_windows(batch, 40))
        assert [c for c, _ in pieces] == [0, 1, 2]
        assert sum(len(w) for _, w in pieces) == 100


class TestWindowSpec:
    def test_window_index(self):
        spec = WindowSpec(horizon_s=3600.0)
        assert spec.window_index(0.0) == 0
        assert spec.window_index(3599.9) == 0
        assert spec.window_index(3600.0) == 1

    def test_negative_time(self):
        with pytest.raises(ValueError):
            WindowSpec(60.0).window_index(-1.0)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            WindowSpec(0.0)

    def test_bounds_and_validity(self):
        spec = WindowSpec(100.0)
        assert spec.bounds(2) == (200.0, 300.0)
        assert spec.valid_until(2) == 300.0

    def test_select_sorted_uses_halfopen_bounds(self):
        batch = make_batch(10, dt=50.0)  # t = 0, 50, ..., 450
        spec = WindowSpec(100.0)
        w1 = spec.select(batch, 1)  # [100, 200)
        assert w1.t.tolist() == [100.0, 150.0]

    def test_select_unsorted(self):
        t = np.array([250.0, 10.0, 120.0, 130.0])
        batch = TupleBatch(t, np.zeros(4), np.zeros(4), np.zeros(4))
        spec = WindowSpec(100.0)
        assert sorted(spec.select(batch, 1).t.tolist()) == [120.0, 130.0]

    def test_iter_nonempty_skips_gaps(self):
        t = np.array([10.0, 20.0, 510.0])  # gap between windows 0 and 5
        batch = TupleBatch(t, np.zeros(3), np.zeros(3), np.zeros(3))
        spec = WindowSpec(100.0)
        indices = [c for c, _ in spec.iter_nonempty(batch)]
        assert indices == [0, 5]

    def test_iter_nonempty_empty_batch(self):
        assert list(WindowSpec(10.0).iter_nonempty(TupleBatch.empty())) == []


class TestPartitionHelpers:
    def test_sealed_window_count(self):
        assert sealed_window_count(0, 4) == 0
        assert sealed_window_count(7, 4) == 1
        assert sealed_window_count(8, 4) == 2

    def test_sealed_window_count_validation(self):
        with pytest.raises(ValueError):
            sealed_window_count(10, 0)
        with pytest.raises(ValueError):
            sealed_window_count(-1, 4)

    def test_touched_windows(self):
        assert list(touched_windows(0, 4, 4)) == [0]
        assert list(touched_windows(3, 2, 4)) == [0, 1]
        assert list(touched_windows(8, 9, 4)) == [2, 3, 4]
        assert list(touched_windows(5, 0, 4)) == []

    def test_touched_windows_validation(self):
        with pytest.raises(ValueError):
            touched_windows(-1, 2, 4)
        with pytest.raises(ValueError):
            touched_windows(0, 2, 0)
