"""The coefficient-table kernel of ``ModelCover.predict_batch``, and
``predict_runs``, the one pass over every cover run of a request.

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

from repro.core.cover import ModelCover, predict_runs
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


# -- one pass over a request's cover runs --------------------------------------

#: Coordinates a drawn cover's centroids and queries take: a few on a
#: 500 m lattice (so equidistant centroids, and queries on their
#: bisectors, are common), values where a squared offset overflows to
#: inf (±1e154: (1e154 - -1e154)² = 4e308), and, rarely, anything.
_PALETTE = [0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, -0.0, 5e-324,
            1e154, -1e154, 1.5e154, -1.4e154]  # fmt: skip
_coordinate = st.one_of(
    st.sampled_from(_PALETTE), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _runs(draw, models):
    """1–8 covers, each of 1–4 of ``models`` at drawn centroids, with a
    run of 1–64 queries each; the runs' spans tile ``[0, n)`` in order,
    or leave a gap before each run (as an empty owner's run does)."""
    gaps = draw(st.booleans())
    covers, spans, rows = [], [], []
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.integers(1, 4))
        centroids = draw(
            st.lists(st.tuples(_coordinate, _coordinate), min_size=size, max_size=size)
        )
        picks = draw(st.lists(st.sampled_from(models), min_size=size, max_size=size))
        covers.append(_cover("drawn", picks, np.array(centroids)))
        if gaps:
            rows += [(0.0, 0.0, 0.0)] * draw(st.integers(0, 2))
        k = draw(st.one_of(st.just(1), st.integers(1, 64)))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        for _ in range(k):
            x, y = (
                float(rng.choice(_PALETTE)) if rng.random() < 0.7 else float(rng.uniform(-1e4, 1e4))
                for _ in range(2)
            )
            rows.append((float(rng.uniform(0.0, 86400.0)), x, y))
        spans.append((len(rows) - k, len(rows)))
    return covers, spans, _columns(rows)


@pytest.fixture(scope="module")
def family_models(small_batch):
    """Four fitted models of every registered family."""
    return {
        family: [
            model_factory(family)(small_batch.slice(k * 240, (k + 1) * 240)) for k in range(4)
        ]
        for family in registered_families()
    }


class TestOnePassEqualsPerCover:
    """``predict_runs`` — the one evaluation of every cover run of a
    route — is bitwise each cover's own evaluation of its run, ties and
    overflow included, and touches nothing outside the runs."""

    def _check(self, covers, spans, columns):
        t, x, y = columns
        out = np.full(len(t), 7.25)
        predict_runs(covers, spans, t, x, y, out)
        covered = np.zeros(len(t), dtype=bool)
        for cover, (lo, hi) in zip(covers, spans):
            alone = cover.predict_batch(t[lo:hi], x[lo:hi], y[lo:hi])
            assert _bits(out[lo:hi]) == _bits(alone)
            assert _bits(alone) == _bits(per_model_loop(cover, t[lo:hi], x[lo:hi], y[lo:hi]))
            covered[lo:hi] = True
        assert (out[~covered] == 7.25).all()

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_bitwise_each_covers_own_evaluation(self, family_models, family, data):
        self._check(*data.draw(_runs(family_models[family])))

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_covers_of_several_families_in_one_pass(self, family_models, data):
        every = [m for models in family_models.values() for m in models]
        covers, spans, columns = data.draw(_runs(every))
        # A drawn cover mixing families has no table; one of a single
        # family keeps its family's.
        self._check(covers, spans, columns)

    def test_an_overflowed_run_stays_with_its_own_cover(self, family_models):
        """The query of the second run is 4e308 away (inf) from each of
        its own cover's centroids and 0 from the first cover's: its
        owner is its own cover's first model, never the first cover's."""
        linear = family_models["linear"]
        near = _cover("linear", linear[:2], np.array([[1e154, 0.0], [1e154, 5.0]]))
        far = _cover("linear", linear[2:], np.array([[-1e154, 0.0], [-1e154, 9.0]]))
        t, x, y = np.zeros(2), np.array([1e154, 1e154]), np.array([0.0, 0.0])
        out = np.empty(2)
        predict_runs([near, far], [(0, 1), (1, 2)], t, x, y, out)
        assert _bits(out[1:]) == _bits(linear[2].predict_batch(t[1:], x[1:], y[1:]))
        assert _bits(out[:1]) == _bits(linear[0].predict_batch(t[:1], x[:1], y[:1]))

    def test_equidistant_centroids_across_runs(self, family_models):
        """Two runs whose covers both have two centroids equidistant from
        every query: each query takes its own cover's first."""
        linear = family_models["linear"]
        a = _cover("linear", linear[:2], _CENTROIDS[:2])
        b = _cover("linear", linear[2:], _CENTROIDS[:2])
        t, x, y = np.zeros(4), np.full(4, 1500.0), np.array([0.0, 1000.0, -5.0, 7e3])
        out = np.empty(4)
        predict_runs([a, b], [(0, 2), (2, 4)], t, x, y, out)
        assert _bits(out[:2]) == _bits(linear[0].predict_batch(t[:2], x[:2], y[:2]))
        assert _bits(out[2:]) == _bits(linear[2].predict_batch(t[2:], x[2:], y[2:]))
