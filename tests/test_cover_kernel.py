"""The coefficient-table kernel of ``ModelCover.predict_batch``.

Closed-form families are evaluated as one gather of the owning models'
coefficients and one evaluation of the family's expression over every
query.  The plan path's cover ops, subscription maintenance and the
cached route lane all run it, and the lane's answers are compared with
the plan path's as response bytes — so the table form is held *bitwise*
equal to the per-model loop it replaced (kept below as the reference)
and, row by row, to the scalar ``ModelCoverProcessor.process``.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple
from repro.models import model_factory, registered_families
from repro.models.base import rebuild_model
from repro.query.modelcover import ModelCoverProcessor

# numpy warns where extreme coordinates overflow; the inf / NaN both
# forms then compute is what is compared.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def per_model_loop(cover, t, x, y):
    """``ModelCover.predict_batch`` before the table kernel: owners by
    the first-minimum argmin, then one ``predict_batch`` per owning model."""
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not len(x):
        return np.empty(0, dtype=np.float64)
    d2 = (x[:, None] - cover.centroids[None, :, 0]) ** 2 + (
        y[:, None] - cover.centroids[None, :, 1]
    ) ** 2
    owner = np.argmin(d2, axis=1)
    out = np.empty(len(x), dtype=np.float64)
    for k in np.flatnonzero(np.bincount(owner, minlength=cover.size)):
        mask = owner == k
        out[mask] = cover.models[k].predict_batch(t[mask], x[mask], y[mask])
    return out


def _bits(values):
    """Bytes of a float array with every NaN made one NaN."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def _scalar_bits(value):
    return "nan" if value != value else struct.pack("<d", value)


#: Four centroids: the first two are equidistant from every point on the
#: line x = 1500 (and all four from (1500, 2000)): the first must win.
_CENTROIDS = np.array(
    [[1000.0, 1000.0], [2000.0, 1000.0], [1000.0, 3000.0], [2000.0, 3000.0]]
)
_SPECIAL = [1500.0, 1000.0, 2000.0, 3000.0, 0.0, -0.0, 5e-324, 1e300, -1e300, 1e308]
_position = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2000.0, max_value=8000.0),
    st.sampled_from(_SPECIAL + [float("nan")]),
)
_time = st.floats(allow_nan=False, allow_infinity=False)
_queries = st.lists(st.tuples(_time, _position, _position), min_size=0, max_size=40)


def _cover(family, models, centroids=_CENTROIDS):
    return ModelCover(
        centroids=centroids, models=models, valid_until=0.0, family=family
    )


@pytest.fixture(scope="module", params=registered_families())
def family(request):
    return request.param


@pytest.fixture(scope="module")
def fitted(family, small_batch):
    """A four-model cover of ``family``, each model fitted on its own
    240-tuple window, and a one-model cover of the first of them."""
    fit = model_factory(family)
    models = [fit(small_batch.slice(k * 240, (k + 1) * 240)) for k in range(4)]
    return _cover(family, models), _cover(family, models[:1], _CENTROIDS[:1])


def _columns(rows):
    if not rows:
        return np.empty(0), np.empty(0), np.empty(0)
    return tuple(np.array(col, dtype=np.float64) for col in zip(*rows))


class TestTableEqualsPerModelLoop:
    def test_every_family_is_covered(self):
        assert set(registered_families()) == {"kernel", "linear", "mean", "poly2"}

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=_queries)
    def test_bitwise_the_loop_and_the_scalar_scan(self, fitted, rows):
        t, x, y = _columns(rows)
        for cover in fitted:
            table = cover.predict_batch(t, x, y)
            assert table.dtype == np.float64 and table.shape == (len(t),)
            assert _bits(table) == _bits(per_model_loop(cover, t, x, y))
            proc = ModelCoverProcessor(cover)
            for i, row in enumerate(zip(t.tolist(), x.tolist(), y.tolist())):
                scalar = proc.process(QueryTuple(*row)).value
                assert _scalar_bits(scalar) == _scalar_bits(float(table[i]))

    @settings(max_examples=100, deadline=None)
    @given(
        coefficients=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=9 * 4,
            max_size=9 * 4,
        ),
        rows=_queries,
    )
    def test_drawn_coefficients(self, coefficients, rows):
        """Any coefficients, not only fitted ones — including the extreme
        magnitudes a fit never produces (poly2 needs a positive scale)."""
        t, x, y = _columns(rows)
        widths = {"mean": 1, "linear": 5, "poly2": 9}
        for family, width in widths.items():
            models = []
            for k in range(4):
                c = coefficients[9 * k : 9 * k + width]
                if family == "poly2":
                    c[-1] = abs(c[-1]) or 1.0
                models.append(rebuild_model(family, c))
            cover = _cover(family, models)
            assert _bits(cover.predict_batch(t, x, y)) == _bits(
                per_model_loop(cover, t, x, y)
            )

    @pytest.mark.parametrize(
        "x, y, owner",
        [(1500.0, 1000.0, 0), (1500.0, 2000.0, 0), (1500.0, -7.25, 0), (1500.0, 3100.0, 2)],
    )
    def test_equidistant_centroids_take_the_first(self, fitted, x, y, owner):
        cover, _one = fitted
        expected = cover.models[owner].predict(5.0, x, y)
        got = cover.predict_batch(np.array([5.0]), np.array([x]), np.array([y]))
        assert _scalar_bits(float(got[0])) == _scalar_bits(float(expected))

    def test_signed_zero_far_and_nan_coordinates(self, fitted):
        special = _SPECIAL + [float("nan"), -1e308]
        x, y = (np.array(col) for col in zip(*[(a, b) for a in special for b in special]))
        t = np.zeros(len(x))
        for cover in fitted:
            assert _bits(cover.predict_batch(t, x, y)) == _bits(
                per_model_loop(cover, t, x, y)
            )

    def test_empty_batch(self, fitted):
        for cover in fitted:
            out = cover.predict_batch(np.empty(0), np.empty(0), np.empty(0))
            assert out.dtype == np.float64 and out.shape == (0,)

    def test_mixed_model_classes_evaluate_model_by_model(self, small_batch):
        """A cover whose models are not all of one closed-form class has
        no table; it still answers each query with its owner's model."""
        window = small_batch.slice(0, 240)
        models = [model_factory("linear")(window), model_factory("mean")(window)]
        cover = _cover("linear", models, _CENTROIDS[:2])
        t = np.zeros(3)
        x, y = np.array([900.0, 2100.0, 1500.0]), np.array([1000.0, 1000.0, 0.0])
        assert _bits(cover.predict_batch(t, x, y)) == _bits(
            per_model_loop(cover, t, x, y)
        )
