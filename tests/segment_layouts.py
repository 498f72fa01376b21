"""Segment images in layouts the store refuses, for the refusal tests.

:func:`general_image` is the general segment writer of the format's
directory: any codec per group (0 = raw, 1 = zlib), the header padded
to 8 bytes or not, any scan columns.  With its defaults it writes
exactly the seal layout (``tests/test_storage_segments.py`` holds it to
:func:`~repro.storage.segments.encode_segment` byte for byte), so a
refused image differs from an accepted one in only the asked-for way.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.storage.sketch import WindowSketch

_META = struct.Struct("<IQIQQ8d")
_DTYPE_CODES = {"<f8": 0, "<i8": 1}


def _str(s: str) -> bytes:
    data = s.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def general_image(
    *,
    shard: int,
    window_c: int,
    h: int,
    stamp: int,
    batch,
    gids: np.ndarray,
    sketch: WindowSketch,
    codec: int = 0,
    pad: bool = True,
    core_columns=("t", "x", "y", "s"),
) -> bytes:
    groups = (
        ("core", [(name, getattr(batch, name)) for name in core_columns]),
        ("gids", [("gid", np.asarray(gids))]),
    )
    header = _META.pack(shard, window_c, h, len(batch), stamp, *sketch.bounds())
    header += struct.pack("<I", len(groups))
    payloads = []
    for name, columns in groups:
        typed = [
            (col, np.ascontiguousarray(arr, dtype="<i8" if arr.dtype.kind == "i" else "<f8"))
            for col, arr in columns
        ]
        raw = b"".join(arr.tobytes() for _, arr in typed)
        payload = zlib.compress(raw, 6) if codec == 1 else raw
        payloads.append(payload)
        header += _str(name) + struct.pack(
            "<BQQII", codec, len(raw), len(payload), zlib.crc32(raw), len(typed)
        )
        for col, arr in typed:
            header += _str(col) + bytes([_DTYPE_CODES[arr.dtype.str]])
    if pad:
        header += b"\0" * (-(16 + len(header)) % 8)
    preamble = struct.pack("<4sIII", b"EMSG", 1, len(header), zlib.crc32(header))
    return preamble + header + b"".join(payloads)
