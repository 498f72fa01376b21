"""Wire messages between the EnviroMeter app and the server.

Four message types (Figure 3 and Section 2.3):

* :class:`QueryRequest` — a query tuple ``q_l`` sent by the baseline
  client (one per position update);
* :class:`ValueResponse` — the interpolated value ``ŝ_l`` sent back;
* :class:`ModelRequest` — the model request ``e_l`` sent by a model-cache
  client at initialisation or when the cached cover expires;
* :class:`ModelCoverResponse` — the server's reply carrying
  ``(t_n, µ, M)`` as a serialized cover blob.

Every message has a compact binary body; the HTTP-like framing overhead is
accounted separately in :mod:`repro.network.protocol`, mirroring the real
deployment where each exchange was an HTTP request/response over GPRS/3G.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

from repro.core.cover import ModelCover

_TYPE_QUERY = 1
_TYPE_VALUE = 2
_TYPE_MODEL_REQ = 3
_TYPE_MODEL_RESP = 4


@dataclass(frozen=True)
class QueryRequest:
    """The query tuple ``q_l = (t_l, x_l, y_l)``."""

    t: float
    x: float
    y: float

    def body(self) -> bytes:
        return struct.pack("<Bddd", _TYPE_QUERY, self.t, self.x, self.y)


@dataclass(frozen=True)
class ValueResponse:
    """The interpolated value ``ŝ_l`` (NaN encodes "no data")."""

    t: float
    value: float

    def body(self) -> bytes:
        return struct.pack("<Bdd", _TYPE_VALUE, self.t, self.value)


@dataclass(frozen=True)
class ModelRequest:
    """The model request ``e_l``; carries the client's position so the
    server could, in principle, ship a spatially-trimmed cover."""

    t: float
    x: float
    y: float

    def body(self) -> bytes:
        return struct.pack("<Bddd", _TYPE_MODEL_REQ, self.t, self.x, self.y)


@dataclass(frozen=True)
class ModelCoverResponse:
    """The full cover ``(t_n, µ, M)`` as a serialized blob."""

    blob: bytes

    def body(self) -> bytes:
        return struct.pack("<BI", _TYPE_MODEL_RESP, len(self.blob)) + self.blob

    def cover(self) -> ModelCover:
        return ModelCover.from_blob(self.blob)


Message = Union[QueryRequest, ValueResponse, ModelRequest, ModelCoverResponse]


def encode_message(msg: Message) -> bytes:
    """Binary body of any message."""
    return msg.body()


def _unpack(fmt: str, data: bytes, what: str) -> tuple:
    """``struct.unpack`` that reports a body of the wrong size as the
    ``ValueError`` :func:`decode_message` documents."""
    if len(data) != struct.calcsize(fmt):
        raise ValueError(
            f"{what} body is {len(data)} bytes, expected {struct.calcsize(fmt)}"
        )
    return struct.unpack(fmt, data)


def decode_message(data: bytes) -> Message:
    """Decode a message body; raises ``ValueError`` on corruption —
    an unknown type, a truncated body or trailing bytes."""
    if not data:
        raise ValueError("empty message")
    mtype = data[0]
    if mtype == _TYPE_QUERY:
        _, t, x, y = _unpack("<Bddd", data, "query request")
        return QueryRequest(t, x, y)
    if mtype == _TYPE_VALUE:
        _, t, value = _unpack("<Bdd", data, "value response")
        return ValueResponse(t, value)
    if mtype == _TYPE_MODEL_REQ:
        _, t, x, y = _unpack("<Bddd", data, "model request")
        return ModelRequest(t, x, y)
    if mtype == _TYPE_MODEL_RESP:
        header = struct.calcsize("<BI")
        if len(data) < header:
            raise ValueError("truncated model-cover response header")
        _, blob_len = struct.unpack_from("<BI", data, 0)
        blob = data[header : header + blob_len]
        if len(blob) != blob_len:
            raise ValueError("truncated model-cover response")
        if header + blob_len != len(data):
            raise ValueError("trailing bytes in model-cover response")
        return ModelCoverResponse(blob)
    raise ValueError(f"unknown message type {mtype}")
