"""Immutable, checksummed, column-grouped segment files for sealed windows.

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
its bytes of a pack (:func:`read_packed_segment`, one ``os.pread``) —
and :func:`decode_segment` runs every check below on it.

Segment image layout (little-endian)::

    b"EMSG"                          magic
    u32   version (1)
    u32   header_len
    u32   crc32(header)
    header:
        u32 shard   u64 window_c   u32 h   u64 n_rows   u64 stamp
        8 x f8      sketch bounds (min/max x, y, t, s)
        u32 n_groups
        per group:
            str   name
            u8    codec (0 = raw, 1 = zlib)
            u64   raw_len      u64 comp_len      u32 crc32(raw bytes)
            u32   n_columns
            per column: str name, u8 dtype code (0 = <f8, 1 = <i8)
        zero padding to make 16 + header_len a multiple of 8
    group payloads, in directory order, to the end of the image

A raw (codec 0) image is therefore a multiple of 8 bytes long, and
images concatenated into a pack keep their payloads 8-aligned.

Columns are stored in *groups* that are addressed, checked and (under
codec 1) decompressed as units — the vertical-partitioning idea: the
``core`` group holds the scan columns ``(t, x, y, s)``, the ``gids``
group holds the global stream positions the exact gather orders by.  A
reader asks for just the groups it needs (:func:`read_segment` skips the
rest), and every group is independently CRC-checked against its
uncompressed bytes, so corruption anywhere — header or payload, flipped
bit, truncation or appended bytes — surfaces as :class:`SegmentCorrupt`,
never as silently wrong rows.

Seals write **codec 0**: a fault-in is one read of the image, one
struct unpack of its header (:func:`_decode_sealed`), the checks and
two ``np.frombuffer`` views of it — no decode, no copy; the header
padding is what makes the views aligned.  Both codecs stay
readable, so a directory sealed before the switch, or holding both,
opens unchanged.  The checks run on every read, not once per file: the
CRC32 of a 3 KB slice costs about 1 µs, less than remembering that it ran.

The sketch persisted in the header is the window slice's zone map
(:class:`~repro.storage.sketch.WindowSketch`): recovery adopts it
without touching the payload, which is what keeps scatter pruning from
ever faulting a segment in just to skip it.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.tuples import TupleBatch
from repro.storage import fsio
from repro.storage.sketch import WindowSketch

_MAGIC = b"EMSG"
_VERSION = 1
_PREAMBLE = struct.Struct("<4sIII")  # magic, version, header_len, header crc
_META = struct.Struct("<IQIQQ8d")  # shard, window_c, h, n_rows, stamp, sketch
_U32 = struct.Struct("<I")
# codec, raw_len, comp_len, crc32(raw), n_columns
_GROUP_HEAD = struct.Struct("<BQQII")

#: Codec codes in the group directory.
CODEC_RAW, CODEC_ZLIB = 0, 1
_DTYPE_CODES = {"<f8": 0, "<i8": 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}

#: The scan column group every query touches.
CORE_COLUMNS = ("t", "x", "y", "s")
_F8 = np.dtype(np.float64)
_I8 = np.dtype("<i8")

#: Preamble and header of the one layout every seal writes, as one
#: struct: ``_META``, then a directory of ``core`` = (t, x, y, s) as
#: ``<f8`` and ``gids`` = (gid,) as ``<i8``, both raw, then the two
#: padding bytes.  Only the groups' ``(raw_len, comp_len, crc)`` vary
#: from image to image; the directory bytes around them are
#: :data:`_SEALED_FIXED`.
_SEALED = struct.Struct("<4sIII" "IQIQQ8d" "13s" "QQI" "37s" "QQI" "14s")
_SEALED_HEAD = (_MAGIC, _VERSION, _SEALED.size - _PREAMBLE.size)
_SEALED_FIXED = (
    struct.pack("<II4sB", 2, 4, b"core", CODEC_RAW),
    _U32.pack(len(CORE_COLUMNS))
    + b"".join(struct.pack("<I1sB", 1, col.encode(), 0) for col in CORE_COLUMNS)
    + struct.pack("<I4sB", 4, b"gids", CODEC_RAW),
    struct.pack("<II3sB", 1, 3, b"gid", 1) + b"\0\0",
)
_SEALED_GROUPS = frozenset(("core", "gids"))


class SegmentCorrupt(ValueError):
    """A segment file failed structural or checksum validation."""


@dataclass(frozen=True)
class SegmentMeta:
    """Always-resident metadata of one segment (header only)."""

    shard: int
    window_c: int
    h: int
    n_rows: int
    stamp: int
    sketch: WindowSketch


@dataclass(frozen=True)
class Segment:
    """A decoded segment: the header's ``_META`` record plus the
    requested column groups.  :attr:`meta` is built on demand, so a
    fault-in that only checks :attr:`key` never constructs a sketch."""

    record: tuple
    groups: Mapping[str, Mapping[str, np.ndarray]]

    @property
    def key(self) -> Tuple[int, int, int]:
        """``(shard, window_c, n_rows)`` the file claims to hold."""
        return self.record[0], self.record[1], self.record[3]

    @property
    def meta(self) -> SegmentMeta:
        return _meta_of(self.record)

    def batch(self) -> TupleBatch:
        """The scan columns as a batch.  :func:`read_segment` has just
        length-, CRC- and row-count-checked them and built them as
        read-only one-dimensional views of one length, so float64 columns
        (all a seal writes) are wrapped as they are."""
        columns = [self.groups["core"][name] for name in CORE_COLUMNS]
        if any(column.dtype != _F8 for column in columns):
            return TupleBatch(*columns)  # converts, as it always has
        return TupleBatch._of_columns(*columns)

    def gids(self) -> np.ndarray:
        return self.groups["gids"]["gid"]


def segment_filename(shard: int, window_c: int) -> str:
    """The standalone file name a per-slice (format-1) tiered directory
    gave each slice; seals now write packs instead."""
    return f"seg-s{shard:04d}-w{window_c:08d}.seg"


def _meta_of(record: tuple) -> SegmentMeta:
    return SegmentMeta(*record[:5], WindowSketch.restored(record[3], record[5:]))


def _write_str(buf: io.BytesIO, s: str) -> None:
    data = s.encode("utf-8")
    buf.write(_U32.pack(len(data)))
    buf.write(data)


def _read_str(data: bytes, offset: int) -> Tuple[str, int]:
    (n,) = _U32.unpack_from(data, offset)
    offset += 4
    return data[offset : offset + n].decode("utf-8"), offset + n


def encode_segment(
    *,
    shard: int,
    window_c: int,
    h: int,
    stamp: int,
    batch: TupleBatch,
    gids: np.ndarray,
    sketch: WindowSketch,
    compress: bool = False,
) -> bytes:
    """The segment image of one sealed ``(shard, window)`` slice.

    ``compress`` stores the groups zlib'd (codec 1): less disk, a decode
    per read.
    """
    if len(gids) != len(batch):
        raise ValueError("gids must align with the batch rows")
    codec = CODEC_ZLIB if compress else CODEC_RAW
    groups = (
        ("core", {name: getattr(batch, name) for name in CORE_COLUMNS}),
        ("gids", {"gid": np.ascontiguousarray(gids, dtype="<i8")}),
    )
    header = io.BytesIO()
    header.write(
        _META.pack(shard, window_c, h, len(batch), stamp, *sketch.bounds())
    )
    header.write(_U32.pack(len(groups)))
    payloads = []
    for name, columns in groups:
        typed = {
            col: np.ascontiguousarray(
                arr, dtype="<i8" if arr.dtype.kind == "i" else "<f8"
            )
            for col, arr in columns.items()
        }
        raw = b"".join(arr.tobytes() for arr in typed.values())
        payload = zlib.compress(raw, 6) if compress else raw
        payloads.append(payload)
        _write_str(header, name)
        header.write(
            _GROUP_HEAD.pack(codec, len(raw), len(payload), zlib.crc32(raw), len(typed))
        )
        for col, arr in typed.items():
            _write_str(header, col)
            header.write(bytes([_DTYPE_CODES[arr.dtype.str.lstrip("=|")]]))
    # Pad so the payloads start 8-aligned in the file image: a raw
    # group's columns are then aligned views of it.  Readers ignore
    # header bytes past the directory; the header CRC covers them.
    header.write(b"\0" * (-(_PREAMBLE.size + header.tell()) % 8))
    header_bytes = header.getvalue()
    return (
        _PREAMBLE.pack(_MAGIC, _VERSION, len(header_bytes), zlib.crc32(header_bytes))
        + header_bytes
        + b"".join(payloads)
    )


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


def _parse_header(data: bytes, path: Union[str, Path]):
    """Validated ``(record, directory, payload_offset)`` off a file image."""
    if len(data) < _PREAMBLE.size:
        raise SegmentCorrupt(f"{path}: truncated segment preamble")
    magic, version, header_len, header_crc = _PREAMBLE.unpack_from(data)
    if magic != _MAGIC:
        raise SegmentCorrupt(f"{path}: not a segment file")
    if version != _VERSION:
        raise SegmentCorrupt(f"{path}: unsupported segment version {version}")
    payload_at = _PREAMBLE.size + header_len
    header = data[_PREAMBLE.size : payload_at]
    if len(header) != header_len or zlib.crc32(header) != header_crc:
        raise SegmentCorrupt(f"{path}: segment header failed its checksum")
    directory = []  # (name, codec, raw_len, comp_len, crc, [(col, dtype)])
    try:
        record = _META.unpack_from(header)
        (n_groups,) = _U32.unpack_from(header, _META.size)
        offset = _META.size + 4
        for _ in range(n_groups):
            name, offset = _read_str(header, offset)
            codec, raw_len, comp_len, crc, n_cols = _GROUP_HEAD.unpack_from(
                header, offset
            )
            offset += _GROUP_HEAD.size
            cols = []
            for _ in range(n_cols):
                col, offset = _read_str(header, offset)
                cols.append((col, _CODE_DTYPES[header[offset]]))
                offset += 1
            directory.append((name, codec, raw_len, comp_len, crc, cols))
    except (struct.error, IndexError, KeyError, UnicodeDecodeError) as exc:
        raise SegmentCorrupt(f"{path}: malformed segment header ({exc})") from None
    return record, directory, payload_at


def read_segment_meta(path: Union[str, Path]) -> SegmentMeta:
    """Header-only read: metadata and sketch, no payload decode."""
    with open(path, "rb") as f:
        preamble = f.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise SegmentCorrupt(f"{path}: truncated segment preamble")
        data = preamble + f.read(_PREAMBLE.unpack(preamble)[2])
    return _meta_of(_parse_header(data, path)[0])


def read_segment(
    path: Union[str, Path], groups: Sequence[str] = ("core", "gids")
) -> Segment:
    """Read and validate the requested column groups of a standalone
    segment file: one read of the file, then :func:`decode_segment`."""
    with open(path, "rb") as f:
        data = f.read()
    return decode_segment(data, path, groups)


def read_packed_segment(
    path: Union[str, Path],
    offset: int,
    length: int,
    groups: Sequence[str] = ("core", "gids"),
) -> Segment:
    """Read and validate the segment image at ``[offset, offset +
    length)`` of a pack file: one ``os.pread`` of exactly those bytes,
    then :func:`decode_segment`.  A pack cut short or a wrong extent
    surfaces as :class:`SegmentCorrupt` like any other bad image."""
    where = f"{path}[{offset}:{offset + length}]"
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.pread(fd, length, offset)
    finally:
        os.close(fd)
    if len(data) != length:
        raise SegmentCorrupt(f"{where}: pack ends {length - len(data)} bytes short")
    return decode_segment(data, where, groups)


def decode_segment(
    data: bytes, where: Union[str, Path], groups: Sequence[str] = ("core", "gids")
) -> Segment:
    """Validate a segment image and view its requested column groups.

    Groups not asked for are never sliced, decoded or checksummed.
    Every check runs on every call: preamble, header CRC, image length
    against the directory, then per wanted group its length, the CRC32
    of its uncompressed bytes and its row count, before any array is
    built.  The arrays are read-only views: of the image for a raw
    group, of the decoded bytes for a zlib one.  ``where`` names the
    image in error messages.  An image in the layout seals write is
    read by :func:`_decode_sealed`; any other by the general parser.
    """
    segment = _decode_sealed(data, where, groups)
    if segment is not None:
        return segment
    record, directory, offset = _parse_header(data, where)
    names = [entry[0] for entry in directory]
    unknown = [name for name in groups if name not in names]
    if unknown:
        raise KeyError(f"{where}: no column group(s) {sorted(set(unknown))}")
    if offset + sum(entry[3] for entry in directory) != len(data):
        raise SegmentCorrupt(
            f"{where}: file length disagrees with its group directory"
        )
    n_rows = record[3]
    image = memoryview(data)
    decoded = {}
    for name, codec, raw_len, comp_len, crc, cols in directory:
        start, offset = offset, offset + comp_len
        if name not in groups:
            continue
        raw = image[start:offset]
        if codec == CODEC_ZLIB:
            try:
                raw = zlib.decompress(raw)
            except zlib.error as exc:
                raise SegmentCorrupt(
                    f"{where}: group {name!r} failed to decompress ({exc})"
                ) from None
        elif codec != CODEC_RAW:
            raise SegmentCorrupt(f"{where}: group {name!r} has unknown codec {codec}")
        if len(raw) != raw_len or zlib.crc32(raw) != crc:
            raise SegmentCorrupt(f"{where}: group {name!r} failed its checksum")
        if raw_len != n_rows * 8 * len(cols):
            raise SegmentCorrupt(
                f"{where}: group {name!r} length disagrees with its row count"
            )
        decoded[name] = {
            col: np.frombuffer(raw, dtype=dtype, count=n_rows, offset=k * n_rows * 8)
            for k, (col, dtype) in enumerate(cols)
        }
    return Segment(record, decoded)


def _decode_sealed(
    data: bytes, where: Union[str, Path], groups: Sequence[str]
) -> Optional[Segment]:
    """:func:`decode_segment` for an image in the layout seals write —
    one :data:`_SEALED` unpack for preamble, meta and directory, one
    ``np.frombuffer`` view per group — or None when the image is not
    in it (format-1 files from before the padding rule, zlib groups,
    other groups or columns): the general parser reads those, and
    raises whatever error the image deserves.

    The checks are the general parser's, in its order and with its
    messages: header CRC, image length against the directory, then per
    wanted group its length, CRC and row count.  The preamble and the
    directory are checked by comparison with the fixed layout.
    """
    if len(data) < _SEALED.size or not _SEALED_GROUPS.issuperset(groups):
        return None
    fields = _SEALED.unpack_from(data)
    # Magic, version and header length; the three fixed directory runs.
    if fields[:3] != _SEALED_HEAD or fields[17:26:4] != _SEALED_FIXED:
        return None
    image = memoryview(data)
    start = _SEALED.size
    if zlib.crc32(image[_PREAMBLE.size : start]) != fields[3]:
        raise SegmentCorrupt(f"{where}: segment header failed its checksum")
    record = fields[4:17]
    core_raw, core_len, core_crc, _, gids_raw, gids_len, gids_crc = fields[18:25]
    if start + core_len + gids_len != len(data):
        raise SegmentCorrupt(
            f"{where}: file length disagrees with its group directory"
        )
    n_rows = record[3]
    decoded = {}
    if "core" in groups:
        _check_raw(image, start, core_len, core_raw, core_crc, 4 * n_rows, "core", where)
        core = np.frombuffer(data, _F8, 4 * n_rows, start).reshape(4, n_rows)
        decoded["core"] = dict(zip(CORE_COLUMNS, core))
    if "gids" in groups:
        start += core_len
        _check_raw(image, start, gids_len, gids_raw, gids_crc, n_rows, "gids", where)
        decoded["gids"] = {"gid": np.frombuffer(data, _I8, n_rows, start)}
    return Segment(record, decoded)


def _check_raw(image, start, length, raw_len, crc, words, name, where) -> None:
    """A raw group's checks: its ``length`` bytes at ``start`` are
    ``raw_len`` long with CRC ``crc``, and hold ``words`` 8-byte values."""
    if length != raw_len or zlib.crc32(image[start : start + length]) != crc:
        raise SegmentCorrupt(f"{where}: group {name!r} failed its checksum")
    if raw_len != 8 * words:
        raise SegmentCorrupt(
            f"{where}: group {name!r} length disagrees with its row count"
        )
