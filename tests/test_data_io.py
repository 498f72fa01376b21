"""Tests for repro.data.io."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.io import read_tuples_csv, write_tuples_csv
from repro.data.tuples import TupleBatch


@pytest.fixture()
def batch():
    return TupleBatch(
        [0.0, 60.0, 120.0],
        [1.5, 2.5, 3.5],
        [4.5, 5.5, 6.5],
        [400.123456789, 410.0, 420.0],
    )


class TestRoundTrip:
    def test_exact_round_trip(self, batch, tmp_path):
        path = tmp_path / "tuples.csv"
        write_tuples_csv(batch, path)
        loaded = read_tuples_csv(path)
        assert np.array_equal(loaded.t, batch.t)
        assert np.array_equal(loaded.x, batch.x)
        assert np.array_equal(loaded.y, batch.y)
        assert np.array_equal(loaded.s, batch.s)  # repr() is lossless

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
            max_size=20,
        )
    )
    def test_any_finite_floats_round_trip_bit_for_bit(self, rows, tmp_path):
        """The benchmark cache relies on this: a re-loaded dataset is the
        generated one to the last bit, signed zeros and subnormals too."""
        cols = [np.array(c, dtype=np.float64) for c in zip(*rows)] or [
            np.array([], dtype=np.float64)
        ] * 4
        batch = TupleBatch(*cols)
        path = tmp_path / "prop.csv"
        write_tuples_csv(batch, path)
        loaded = read_tuples_csv(path)
        for name in ("t", "x", "y", "s"):
            got, want = getattr(loaded, name), getattr(batch, name)
            assert got.tobytes() == want.tobytes()

    def test_empty_batch(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_tuples_csv(TupleBatch.empty(), path)
        assert len(read_tuples_csv(path)) == 0


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_tuples_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            read_tuples_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y,s\n1,2,3\n")
        with pytest.raises(ValueError, match="4 columns"):
            read_tuples_csv(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y,s\n1,2,3,abc\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_tuples_csv(path)
