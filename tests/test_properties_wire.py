"""Property/fuzz tests on the wire formats.

Corruption must never produce a silently-wrong cover or message — the
decoders either round-trip exactly or raise cleanly (never hang, never
return garbage objects of the wrong type); ``decode_message`` raises
``ValueError``, as it documents.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cover import ModelCover
from repro.models.mean import MeanModel
from repro.network.messages import (
    ModelCoverResponse,
    ModelRequest,
    QueryRequest,
    ValueResponse,
    decode_message,
    encode_message,
)


def small_cover(n_models: int, valid_until: float) -> ModelCover:
    return ModelCover(
        centroids=np.arange(2 * n_models, dtype=float).reshape(n_models, 2),
        models=[MeanModel(float(400 + k)) for k in range(n_models)],
        valid_until=valid_until,
        family="mean",
    )


@settings(max_examples=60, deadline=None)
@given(
    n_models=st.integers(min_value=1, max_value=12),
    valid_until=st.floats(min_value=0, max_value=1e12, allow_nan=False),
)
def test_cover_blob_round_trip_exact(n_models, valid_until):
    cover = small_cover(n_models, valid_until)
    rebuilt = ModelCover.from_blob(cover.to_blob())
    assert rebuilt.size == cover.size
    assert rebuilt.valid_until == valid_until
    assert np.array_equal(rebuilt.centroids, cover.centroids)


@settings(max_examples=120, deadline=None)
@given(data=st.binary(min_size=0, max_size=400))
def test_random_bytes_never_decode_to_a_cover(data):
    """Random bytes (overwhelmingly) fail cleanly; if they happen to form
    a valid blob it must start with the magic."""
    try:
        ModelCover.from_blob(data)
    except Exception:
        return
    assert data[:4] == b"EMCV"


@settings(max_examples=80, deadline=None)
@given(
    blob_prefix=st.integers(min_value=0, max_value=100),
)
def test_truncated_cover_blob_raises(blob_prefix):
    blob = small_cover(3, 100.0).to_blob()
    truncated = blob[: min(blob_prefix, len(blob) - 1)]
    with pytest.raises(Exception):
        ModelCover.from_blob(truncated)


@settings(max_examples=120, deadline=None)
@given(data=st.binary(min_size=0, max_size=80))
def test_random_bytes_never_decode_to_a_message_silently(data):
    try:
        msg = decode_message(data)
    except ValueError:
        return
    # If it decoded, re-encoding must reproduce the input exactly —
    # i.e. the decoder accepted a genuinely well-formed message.
    assert encode_message(msg) == data


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(allow_nan=False, allow_infinity=False),
    x=st.floats(allow_nan=False, allow_infinity=False),
    y=st.floats(allow_nan=False, allow_infinity=False),
)
def test_query_request_round_trip(t, x, y):
    msg = QueryRequest(t=t, x=x, y=y)
    assert decode_message(encode_message(msg)) == msg


@pytest.mark.parametrize(
    "msg",
    [
        QueryRequest(1.0, 2.0, 3.0),
        ValueResponse(1.0, 400.0),
        ModelRequest(1.0, 2.0, 3.0),
        ModelCoverResponse(small_cover(2, 10.0).to_blob()),
    ],
    ids=lambda msg: type(msg).__name__,
)
def test_every_truncation_and_extension_raises_value_error(msg):
    body = encode_message(msg)
    for cut in range(1, len(body)):
        with pytest.raises(ValueError):
            decode_message(body[:cut])
    with pytest.raises(ValueError):
        decode_message(body + b"\x00")
    assert decode_message(body) == msg
