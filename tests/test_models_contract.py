"""The contract every registered model family shares.

A cover holds models of one family, ships their coefficients to the
phone, and is evaluated one query at a time or over a batch; each of
those uses is checked here on every family in the registry, so a new
family is held to it without a new test.
"""

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.models.base import model_factory, rebuild_model, registered_families


def _window(values=None, n=60, seed=3):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 3600.0, n))
    x = rng.uniform(0.0, 500.0, n)
    y = rng.uniform(0.0, 500.0, n)
    s = rng.normal(400.0, 20.0, n) if values is None else np.full(n, values)
    return TupleBatch(t, x, y, s)


@pytest.fixture(params=registered_families())
def family(request):
    return request.param


def test_a_constant_field_is_predicted_as_that_constant(family):
    batch = _window(values=412.5)
    model = model_factory(family)(batch)
    got = model.predict_batch(batch.t, batch.x, batch.y)
    np.testing.assert_allclose(got, 412.5, rtol=1e-12)


def test_predict_is_bitwise_predict_batch(family):
    batch = _window()
    model = model_factory(family)(batch)
    whole = model.predict_batch(batch.t, batch.x, batch.y)
    one_by_one = [model.predict(t, x, y) for t, x, y in zip(batch.t, batch.x, batch.y)]
    assert whole.dtype == np.float64
    np.testing.assert_array_equal(whole, one_by_one)


def test_the_wire_coefficients_rebuild_the_same_model(family):
    batch = _window()
    model = model_factory(family)(batch)
    coeffs = model.coefficients()
    assert isinstance(coeffs, tuple) and all(np.isfinite(coeffs))
    rebuilt = rebuild_model(family, coeffs)
    assert rebuilt.family == family
    np.testing.assert_array_equal(
        rebuilt.predict_batch(batch.t, batch.x, batch.y),
        model.predict_batch(batch.t, batch.x, batch.y),
    )


def test_fitting_is_deterministic(family):
    batch = _window()
    fit = model_factory(family)
    assert fit(batch).coefficients() == fit(batch).coefficients()


def test_a_single_tuple_is_its_own_prediction(family):
    batch = TupleBatch(
        np.array([120.0]), np.array([35.0]), np.array([70.0]), np.array([7.0])
    )
    assert model_factory(family)(batch).predict(120.0, 35.0, 70.0) == 7.0


def test_an_empty_window_is_refused(family):
    with pytest.raises(ValueError, match="empty batch"):
        model_factory(family)(TupleBatch.empty())


def test_zero_queries_answer_an_empty_array_and_inputs_stay_put(family):
    batch = _window()
    model = model_factory(family)(batch)
    empty = np.array([], dtype=np.float64)
    got = model.predict_batch(empty, empty, empty)
    assert got.shape == (0,) and got.dtype == np.float64
    t, x, y = batch.t.copy(), batch.x.copy(), batch.y.copy()
    model.predict_batch(t, x, y)
    np.testing.assert_array_equal(t, batch.t)
    np.testing.assert_array_equal(x, batch.x)
    np.testing.assert_array_equal(y, batch.y)
