"""Tests for repro.query.modelcover."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple
from repro.models import model_factory, registered_families
from repro.models.mean import MeanModel
from repro.query.base import QueryBatch
from repro.query.modelcover import ModelCoverProcessor


def make_cover():
    return ModelCover(
        centroids=np.array([[0.0, 0.0], [1000.0, 1000.0]]),
        models=[MeanModel(400.0), MeanModel(700.0)],
        valid_until=100.0,
        family="mean",
    )


class TestProcessing:
    def test_routes_to_nearest_model(self):
        proc = ModelCoverProcessor(make_cover())
        assert proc.process(QueryTuple(0, 10, 10)).value == 400.0
        assert proc.process(QueryTuple(0, 990, 990)).value == 700.0

    def test_always_answers(self):
        proc = ModelCoverProcessor(make_cover())
        res = proc.process(QueryTuple(0, 1e6, -1e6))
        assert res.answered
        assert res.support == 1

    def test_matches_cover_predict(self):
        cover = make_cover()
        proc = ModelCoverProcessor(cover)
        q = QueryTuple(5.0, 300.0, 800.0)
        assert proc.process(q).value == pytest.approx(cover.predict(q.t, q.x, q.y))

    def test_tie_breaks_to_first(self):
        proc = ModelCoverProcessor(make_cover())
        assert proc.process(QueryTuple(0, 500, 500)).value == 400.0

    def test_name(self):
        assert ModelCoverProcessor(make_cover()).name == "model-cover"

    def test_single_model_cover(self):
        cover = ModelCover(
            centroids=np.array([[5.0, 5.0]]),
            models=[MeanModel(555.0)],
            valid_until=0.0,
            family="mean",
        )
        proc = ModelCoverProcessor(cover)
        assert proc.process(QueryTuple(0, -100, 100)).value == 555.0


# -- the scalar path is the batched path on one row, bit for bit -----------
#
# ``ShardedQueryEngine.cached_point`` answers with ``process`` what the
# plan path answers with ``process_batch`` on a 1-row batch, and the two
# answers are compared as response bytes.  ``test_query_batch_equivalence``
# only holds the pair to 1e-9.

#: Four centroids; the first two are equidistant from every point on the
#: line x = 1500 (and all four from (1500, 1000)): the first must win.
_CENTROIDS = np.array(
    [[1000.0, 1000.0], [2000.0, 1000.0], [1000.0, 3000.0], [2000.0, 3000.0]]
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_position = st.one_of(
    _finite,
    st.floats(min_value=-2000.0, max_value=8000.0),
    st.sampled_from([1500.0, 1000.0, 2000.0, 3000.0, 0.0, -0.0, 5e-324, 1e300, -1e300]),
)


def _bits(value):
    """A float's bytes (any NaN is one NaN; ``None`` stays ``None``)."""
    if value is None or value != value:
        return value if value is None else "nan"
    return struct.pack("<d", value)


@pytest.fixture(scope="module", params=registered_families())
def family_processor(request, small_batch):
    """A four-model cover of one registered family, each model fitted on
    its own 240-tuple window."""
    fit = model_factory(request.param)
    models = [fit(small_batch.slice(k * 240, (k + 1) * 240)) for k in range(4)]
    cover = ModelCover(
        centroids=_CENTROIDS, models=models, valid_until=0.0, family=request.param
    )
    return ModelCoverProcessor(cover)


# numpy warns where the extreme coordinates overflow (Python floats do
# not); the inf / NaN either path then computes is what is compared.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestScalarEqualsOneRowBatch:
    def test_every_family_is_covered(self):
        assert set(registered_families()) == {"kernel", "linear", "mean", "poly2"}

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(t=_finite, x=_position, y=_position)
    def test_process_is_bitwise_process_batch(self, family_processor, t, x, y):
        scalar = family_processor.process(QueryTuple(t, x, y))
        row = family_processor.process_batch(
            QueryBatch(np.array([t]), np.array([x]), np.array([y]))
        ).result(0)
        assert _bits(scalar.value) == _bits(row.value)
        assert type(scalar.value) is float and type(row.value) is float
        assert (scalar.support, scalar.answered) == (row.support, row.answered)
        assert scalar.query == row.query

    @pytest.mark.parametrize(
        "x, y, owner",
        [(1500.0, 1000.0, 0), (1500.0, 2000.0, 0), (1500.0, -7.25, 0), (1500.0, 3100.0, 2)],
    )
    def test_equidistant_centroids_first_wins_on_both_paths(
        self, family_processor, x, y, owner
    ):
        expected = family_processor.cover.models[owner].predict(5.0, x, y)
        scalar = family_processor.process(QueryTuple(5.0, x, y))
        row = family_processor.process_batch(
            QueryBatch(np.array([5.0]), np.array([x]), np.array([y]))
        ).result(0)
        assert _bits(scalar.value) == _bits(row.value) == _bits(expected)
