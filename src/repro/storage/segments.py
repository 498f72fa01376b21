"""Immutable, checksummed, column-grouped segment images of sealed windows.

Once a global count-window seals (the write head moves past it), its
rows can never change — the sealed-window immutability contract in
``README.md``.  The durable tier exploits that: each ``(shard, window)``
slice is frozen into one *segment image* (:func:`encode_segment`) and
never modified afterwards, so reads need no locking and crash recovery
never has to repair a segment.

**A segment image is the unit of checking; a file the unit of
durability.**  :func:`write_segment` commits one image as a standalone
file; the tiered store (``tiered.py``) concatenates every image one seal
freezes into one *pack* file and commits that with a single atomic
write (tmp + fsync + rename via :mod:`repro.storage.fsio`), so a pack
exists completely or not at all.  Either way an image is read back on
its own — the whole standalone file (:func:`read_segment`), or exactly
its extent of a pack, one ``os.pread`` (:func:`decode_packed_slice`,
the store's fault-in) — and one decoder runs every check below on it.

There is one layout, and every image is in it (little-endian)::

    b"EMSG"                          magic
    u32   version (1)
    u32   header_len (200)
    u32   crc32(header)
    header:
        u32 shard   u64 window_c   u32 h   u64 n_rows   u64 stamp
        8 x f8      sketch bounds (min/max x, y, t, s)
        u32 n_groups (2)
        per group:
            str   name                 "core", then "gids"
            u8    codec (0 = raw)
            u64   raw_len      u64 stored_len (= raw_len)      u32 crc32
            u32   n_columns
            per column: str name, u8 dtype code
                                       core: t, x, y, s as <f8 (0)
                                       gids: gid as <i8 (1)
        2 zero bytes: the payloads start 8-aligned
    core payload (32 bytes a row), gids payload (8 bytes a row)

(``str`` is a u32 length and UTF-8 bytes.)  Only the shard, window,
``h``, row count, stamp, sketch and each group's lengths and CRC vary
from image to image; the directory bytes around them are
:data:`_SEALED_FIXED`, which the encoder writes and the decoder compares
against.  An image is a multiple of 8 bytes long, so images
concatenated into a pack keep their payloads aligned.

Columns are stored in two *groups* — the vertical-partitioning idea:
``core`` holds the scan columns ``(t, x, y, s)``, ``gids`` the global
stream positions the exact gather orders by — each CRC-checked on its
own, so corruption anywhere (header or payload, flipped bit, truncation
or appended bytes) surfaces as :class:`SegmentCorrupt`, never as
silently wrong rows.  An image whose header passes its CRC but is not in
the layout (a zlib group, an unpadded header, other columns) is corrupt
too: nothing writes one.

A read is two struct unpacks (preamble, header), the checks and two
``np.frombuffer`` views of the image, the four core columns slices of
the first — no decode, no copy.  The checks
run on every read, not once per file: the CRC32 of a 3 KB slice costs
about 1 µs, less than remembering that it ran.

The sketch persisted in the header is the window slice's zone map
(:class:`~repro.storage.sketch.WindowSketch`): recovery adopts it from
the manifest without touching the image, which is what keeps scatter
pruning from ever faulting a segment in just to skip it.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import NamedTuple, Tuple, Union

import numpy as np

from repro.data.tuples import TupleBatch
from repro.storage import fsio
from repro.storage.sketch import WindowSketch

_MAGIC = b"EMSG"
_VERSION = 1

#: The scan column group every query touches.
CORE_COLUMNS = ("t", "x", "y", "s")
_F8 = np.dtype(np.float64)
_I8 = np.dtype("<i8")

_PREAMBLE = struct.Struct("<4sIII")  # magic, version, header_len, header crc
#: The header: shard, window_c, h, n_rows, stamp, 8 sketch bounds; then
#: per group its fixed directory bytes and ``(raw_len, stored_len, crc)``.
_HEADER = struct.Struct("<IQIQQ8d" "13sQQI" "37sQQI" "14s")
#: The directory bytes around the groups' lengths and CRCs: two groups,
#: ``core`` = (t, x, y, s) as ``<f8`` and ``gids`` = (gid,) as ``<i8``,
#: both raw (codec 0), then the two padding bytes.
_SEALED_FIXED = (
    struct.pack("<II4sB", 2, 4, b"core", 0),
    struct.pack("<I", 4)
    + b"".join(struct.pack("<I1sB", 1, col.encode(), 0) for col in CORE_COLUMNS)
    + struct.pack("<I4sB", 4, b"gids", 0),
    struct.pack("<II3sB", 1, 3, b"gid", 1) + b"\0\0",
)
_PAYLOAD_AT = _PREAMBLE.size + _HEADER.size


class SegmentCorrupt(ValueError):
    """A segment image failed structural or checksum validation."""


class Segment(NamedTuple):
    """A decoded segment image: its header's ``(shard, window_c, h,
    n_rows, stamp, *sketch bounds)`` record, its rows and their gids —
    read-only views of the image."""

    record: tuple
    batch: TupleBatch
    gids: np.ndarray


def encode_segment(
    *,
    shard: int,
    window_c: int,
    h: int,
    stamp: int,
    batch: TupleBatch,
    gids: np.ndarray,
    sketch: WindowSketch,
) -> bytes:
    """The segment image of one sealed ``(shard, window)`` slice."""
    if len(gids) != len(batch):
        raise ValueError("gids must align with the batch rows")
    core = b"".join(
        np.ascontiguousarray(getattr(batch, name), dtype="<f8").tobytes()
        for name in CORE_COLUMNS
    )
    gid = np.ascontiguousarray(gids, dtype="<i8").tobytes()
    fixed0, fixed1, fixed2 = _SEALED_FIXED
    header = _HEADER.pack(
        shard, window_c, h, len(batch), stamp, *sketch.bounds(),
        fixed0, len(core), len(core), zlib.crc32(core),
        fixed1, len(gid), len(gid), zlib.crc32(gid),
        fixed2,
    )  # fmt: skip
    preamble = _PREAMBLE.pack(_MAGIC, _VERSION, len(header), zlib.crc32(header))
    return preamble + header + core + gid


def write_segment(path: Union[str, Path], **slice_fields) -> int:
    """Atomically write one slice's image (:func:`encode_segment`'s
    keyword arguments) as a standalone file; returns its size in bytes.

    The write is all-or-nothing: the file only appears under ``path``
    after its full content is fsynced (see
    :func:`repro.storage.fsio.atomic_write_bytes`).
    """
    blob = encode_segment(**slice_fields)
    fsio.atomic_write_bytes(path, blob)
    return len(blob)


def read_segment(path: Union[str, Path]) -> Segment:
    """Read and check a standalone segment file: one read of the file,
    then :func:`decode_segment`."""
    with open(path, "rb") as f:
        data = f.read()
    return decode_segment(data, path)


def decode_segment(data: bytes, where: Union[str, Path]) -> Segment:
    """Check a segment image and view its columns; ``where`` names the
    image in error messages."""
    record, core, gids = _decode(data, where)
    return Segment(record, TupleBatch._of_columns(*core), gids)


def decode_packed_slice(
    data: bytes, where: Tuple[str, int, int], key: Tuple[int, int, int]
) -> Tuple[TupleBatch, np.ndarray]:
    """``(batch, gids)`` of the sealed slice whose pack extent ``where``
    = ``(file, offset, length)`` was read as ``data``, which must hold
    the slice ``key`` = ``(shard, window, rows)`` — the tiered store's
    fault-in.

    The checks, in order: the pack cut short, then every image check,
    then the key — an image swapped or restored under another slice's
    extent passes every checksum.  ``where`` is formatted only for an
    error.
    """
    length = where[2]
    if len(data) != length:
        raise SegmentCorrupt(
            f"{_where(where)}: pack ends {length - len(data)} bytes short"
        )
    record, core, gids = _decode(data, where)
    got = (record[0], record[1], record[3])
    if got != key:
        raise SegmentCorrupt(
            f"{_where(where)}: holds (shard, window, rows) {got}, "
            f"the router expects {key}"
        )
    return TupleBatch._of_columns(*core), gids


def _where(where) -> str:
    """How an error names an image: a pack extent ``(file, offset,
    length)`` as ``file[offset:end]``, anything else as it prints."""
    if isinstance(where, tuple):
        name, offset, length = where
        return f"{name}[{offset}:{offset + length}]"
    return str(where)


def _decode(data: bytes, where):
    """``(record, core, gids)`` of a segment image — ``record`` its
    header fields, ``core`` its ``(t, x, y, s)`` columns, ``gids`` its
    gid column — or :class:`SegmentCorrupt`.

    The checks, each with its own message: the preamble's length, magic
    and version; the header's length and CRC; the header against the
    layout; the image's length against the directory; then per group
    its length, CRC and row count.  The header CRC runs before the
    layout comparison, so a flipped directory byte reads as a failed
    checksum.
    """
    if len(data) < _PREAMBLE.size:
        raise SegmentCorrupt(f"{_where(where)}: truncated segment preamble")
    magic, version, header_len, header_crc = _PREAMBLE.unpack_from(data)
    if magic != _MAGIC:
        raise SegmentCorrupt(f"{_where(where)}: not a segment file")
    if version != _VERSION:
        raise SegmentCorrupt(f"{_where(where)}: unsupported segment version {version}")
    image = memoryview(data)
    header = image[_PREAMBLE.size : _PREAMBLE.size + header_len]
    if len(header) != header_len or zlib.crc32(header) != header_crc:
        raise SegmentCorrupt(f"{_where(where)}: segment header failed its checksum")
    if header_len != _HEADER.size:
        _not_the_layout(where)
    record = _HEADER.unpack_from(data, _PREAMBLE.size)
    n_rows = record[3]
    (
        fixed0, core_raw, core_len, core_crc,
        fixed1, gids_raw, gids_len, gids_crc, fixed2,
    ) = record[13:]  # fmt: skip
    if (fixed0, fixed1, fixed2) != _SEALED_FIXED:
        _not_the_layout(where)
    start = _PAYLOAD_AT
    end = start + core_len
    if end + gids_len != len(data):
        raise SegmentCorrupt(
            f"{_where(where)}: file length disagrees with its group directory"
        )
    # Per group: its length and CRC, then its row count — written out
    # twice, not called: this is every fault-in's path.
    if core_len != core_raw or zlib.crc32(image[start:end]) != core_crc:
        raise SegmentCorrupt(f"{_where(where)}: group 'core' failed its checksum")
    if core_raw != 32 * n_rows:
        raise SegmentCorrupt(
            f"{_where(where)}: group 'core' length disagrees with its row count"
        )
    if gids_len != gids_raw or zlib.crc32(image[end:]) != gids_crc:
        raise SegmentCorrupt(f"{_where(where)}: group 'gids' failed its checksum")
    if gids_raw != 8 * n_rows:
        raise SegmentCorrupt(
            f"{_where(where)}: group 'gids' length disagrees with its row count"
        )
    flat = np.frombuffer(data, _F8, 4 * n_rows, start)
    core = (
        flat[:n_rows], flat[n_rows : 2 * n_rows],
        flat[2 * n_rows : 3 * n_rows], flat[3 * n_rows :],
    )  # fmt: skip
    return record[:13], core, np.frombuffer(data, _I8, n_rows, end)


def _not_the_layout(where) -> None:
    raise SegmentCorrupt(
        f"{_where(where)}: segment header is not the layout seals write "
        "(raw, padded core and gids groups)"
    )
