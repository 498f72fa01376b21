"""Tests for repro.storage.segments — the immutable sealed-window images.

The durable tier's correctness rests on three properties of the one
layout seals write: round-trips are *byte-exact* against what the
encoder was given (float64 columns, NaN/inf payloads and all); any
single corrupted or missing byte surfaces as :class:`SegmentCorrupt`
with the message the pinned table names, rather than silently wrong
rows; and an image that is well-formed but in another layout (zlib,
unpadded, other columns) is refused, not read.  Hypothesis drives the
round-trip over random lengths and pathological floats, and the
corruption tests flip / drop *every byte offset* of a small image, read
both as a standalone file and as a pack extent.
"""

import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.storage import segments
from repro.storage.segments import (
    CORE_COLUMNS,
    SegmentCorrupt,
    decode_packed_slice,
    encode_segment,
    read_segment,
    write_segment,
)
from repro.storage.shards import ShardRouter
from repro.storage.sketch import WindowSketch
from repro.storage.tiered import TieredShardRouter
from segment_layouts import general_image

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_floats = st.floats(
    allow_nan=True, allow_infinity=True, width=64
)  # full float64 range, NaN and ±inf included


def _batch(n: int, seed: int = 0) -> TupleBatch:
    rng = np.random.default_rng(seed)
    return TupleBatch(
        np.cumsum(rng.uniform(0.5, 5.0, n)),
        rng.uniform(0.0, 100.0, n),
        rng.uniform(0.0, 100.0, n),
        rng.uniform(350.0, 600.0, n),
    )


#: Preamble bytes, and the header length of the two-group directory
#: before padding: 96 (meta) + 4 (n_groups) + 57 (core) + 41 (gids).
_PREAMBLE_LEN, _NATURAL_HEADER_LEN = 16, 198
#: File offset of the ``core`` group's codec byte (16 + 96 + 4 + 4 + 4)
#: and of its first column's dtype code (+ 25 of group head, + 4 + 1).
_CORE_CODEC_AT, _CORE_DTYPE_AT = 124, 154


def _reheader(data: bytes, header: bytes) -> bytes:
    """``data`` with its header replaced and the preamble recomputed —
    what a writer that really meant ``header`` would have produced."""
    (old_len,) = struct.unpack_from("<I", data, 8)
    return (
        struct.pack("<4sIII", data[:4], 1, len(header), zlib.crc32(header))
        + header
        + data[_PREAMBLE_LEN + old_len :]
    )


def _fields(batch, gids=None, **kwargs) -> dict:
    if gids is None:
        gids = np.arange(len(batch), dtype=np.int64)
    fields = dict(
        shard=3, window_c=17, h=240, stamp=42, batch=batch, gids=gids,
        sketch=WindowSketch.of(batch) if len(batch) else WindowSketch.EMPTY,
    )  # fmt: skip
    fields.update(kwargs)
    return fields


def _write(path, batch, gids=None, **kwargs) -> int:
    return write_segment(path, **_fields(batch, gids, **kwargs))


def _assert_holds(batch, gids, want: dict) -> None:
    """``(batch, gids)`` are the encoder's input columns, bit for bit, as
    aligned, read-only, one-dimensional views of the image."""
    for name in CORE_COLUMNS:
        got = getattr(batch, name)
        assert got.dtype == np.float64
        assert got.tobytes() == getattr(want["batch"], name).tobytes()
    assert gids.dtype == np.dtype("<i8")
    assert gids.tobytes() == np.asarray(want["gids"], dtype="<i8").tobytes()
    for column in (*(getattr(batch, name) for name in CORE_COLUMNS), gids):
        assert column.ndim == 1 and len(column) == len(want["batch"])
        assert column.flags.aligned
        assert not column.flags.writeable and not column.flags.owndata


def _assert_header(segment, want: dict) -> None:
    """The segment's header record is the encoder's input fields."""
    assert segment.record[:5] == (
        want["shard"], want["window_c"], want["h"], len(want["batch"]), want["stamp"],
    )  # fmt: skip
    # Bit for bit: a NaN payload's sketch bounds are NaN.
    assert struct.pack("<8d", *segment.record[5:]) == struct.pack(
        "<8d", *want["sketch"].bounds()
    )


#: How an image is read: as a standalone file, or as the pack extent
#: ``pack-w00000003.seg[4096:...]`` of the slice ``(3, 17, rows)``.
_HOW = ["file", "pack extent"]


def _read(how: str, tmp_path, image: bytes, rows: int):
    """``(batch, gids)`` of ``image`` read ``how``."""
    if how == "file":
        path = tmp_path / "a.seg"
        path.write_bytes(image)
        segment = read_segment(path)
        return segment.batch, segment.gids
    where = ("pack-w00000003.seg", 4096, len(image))
    return decode_packed_slice(image, where, (3, 17, rows))


class TestRoundTrip:
    def test_columns_and_gids_byte_exact(self, tmp_path):
        fields = _fields(_batch(100), np.arange(500, 600, dtype=np.int64))
        path = tmp_path / "a.seg"
        size = write_segment(path, **fields)
        assert size == path.stat().st_size == 216 + 40 * 100
        segment = read_segment(path)
        _assert_holds(segment.batch, segment.gids, fields)
        _assert_header(segment, fields)

    def test_meta_round_trip(self, tmp_path):
        batch = _batch(7)
        fields = _fields(batch, shard=5, window_c=9, h=100, stamp=1234)
        path = tmp_path / "a.seg"
        write_segment(path, **fields)
        _assert_header(read_segment(path), fields)

    def test_empty_slice_round_trips(self, tmp_path):
        path = tmp_path / "empty.seg"
        _write(path, TupleBatch.empty())
        seg = read_segment(path)
        assert seg.record[3] == 0
        assert len(seg.batch) == 0
        assert len(seg.gids) == 0
        assert WindowSketch.restored(0, seg.record[5:]) is WindowSketch.EMPTY

    @pytest.mark.parametrize("n", [1, 3, 6, 7, 50])
    def test_raw_columns_are_aligned_read_only_views(self, tmp_path, n):
        """The directory is 198 bytes, not a multiple of 8: the writer
        pads it so the payloads start 8-aligned, and the five columns
        are aligned, read-only, zero-copy views of the image."""
        path = tmp_path / "raw.seg"
        fields = _fields(_batch(n))
        size = write_segment(path, **fields)
        data = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", data, 8)
        assert header_len == _NATURAL_HEADER_LEN + 2
        assert (_PREAMBLE_LEN + header_len) % 8 == 0
        pad = data[_PREAMBLE_LEN + _NATURAL_HEADER_LEN : _PREAMBLE_LEN + header_len]
        assert pad == b"\0\0"
        assert size == _PREAMBLE_LEN + header_len + 5 * 8 * n
        seg = read_segment(path)
        _assert_holds(seg.batch, seg.gids, fields)

    @_SETTINGS
    @given(
        rows=st.lists(
            st.tuples(_floats, _floats, _floats, _floats), min_size=1, max_size=60
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_payloads_round_trip_exactly(self, tmp_path, rows, seed):
        """Any float64 payload — NaN, ±inf, -0.0 — reads back bit-identical."""
        cols = [np.array(col, dtype=np.float64) for col in zip(*rows)]
        batch = TupleBatch(*cols)
        rng = np.random.default_rng(seed)
        gids = np.sort(rng.choice(10**6, size=len(batch), replace=False)).astype(
            np.int64
        )
        fields = _fields(batch, gids)
        path = tmp_path / "prop.seg"
        write_segment(path, **fields)
        seg = read_segment(path)
        _assert_holds(seg.batch, seg.gids, fields)
        _assert_header(seg, fields)

    @_SETTINGS
    @given(
        n=st.integers(0, 70),
        seed=st.integers(0, 2**31 - 1),
        shard=st.integers(0, 2**32 - 1),
        window_c=st.integers(0, 2**64 - 1),
        h=st.integers(1, 2**32 - 1),
        stamp=st.integers(0, 2**64 - 1),
    )
    def test_every_header_field_reads_back(self, n, seed, shard, window_c, h, stamp):
        """The whole range of every header integer, read back as a
        standalone image and as a pack extent."""
        fields = _fields(
            _batch(n, seed), np.arange(7, 7 + n, dtype=np.int64),
            shard=shard, window_c=window_c, h=h, stamp=stamp,
        )  # fmt: skip
        image = encode_segment(**fields)
        segment = segments.decode_segment(image, "image")
        _assert_holds(segment.batch, segment.gids, fields)
        _assert_header(segment, fields)
        batch, gids = decode_packed_slice(
            image, ("pack-w00000000.seg", 8 * seed, len(image)), (shard, window_c, n)
        )
        _assert_holds(batch, gids, fields)

    def test_gid_batch_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="align"):
            _write(tmp_path / "bad.seg", _batch(5), np.arange(4, dtype=np.int64))


class TestCorruptionDetection:
    @pytest.mark.parametrize("how", _HOW)
    def test_every_single_byte_flip_is_detected(self, tmp_path, how):
        """Flip each byte of a small image in turn: every read must fail
        loudly with SegmentCorrupt — magic, version, header, directory and
        payload corruption alike."""
        pristine = encode_segment(**_fields(_batch(6, seed=3)))
        for offset in range(len(pristine)):
            data = bytearray(pristine)
            data[offset] ^= 0xFF
            with pytest.raises(SegmentCorrupt):
                _read(how, tmp_path, bytes(data), 6)
        _read(how, tmp_path, pristine, 6)  # the pristine image still reads

    @pytest.mark.parametrize("how", _HOW)
    def test_every_truncation_is_detected(self, tmp_path, how):
        pristine = encode_segment(**_fields(_batch(6, seed=4)))
        for length in range(len(pristine)):
            with pytest.raises(SegmentCorrupt):
                _read(how, tmp_path, pristine[:length], 6)

    @pytest.mark.parametrize("how", _HOW)
    def test_appended_bytes_are_detected(self, tmp_path, how):
        """The image ends where the directory says the last group ends:
        anything after it is corruption."""
        pristine = encode_segment(**_fields(_batch(6, seed=3)))
        for extra in (b"\0", b"\xff" * 8, pristine):
            with pytest.raises(SegmentCorrupt, match="file length"):
                _read(how, tmp_path, pristine + extra, 6)

    def test_not_a_segment_file(self, tmp_path):
        path = tmp_path / "junk.seg"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SegmentCorrupt, match="not a segment file"):
            read_segment(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "a.seg"
        _write(path, _batch(3))
        data = bytearray(path.read_bytes())
        data[4] = 99  # version field of the preamble
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentCorrupt, match="version 99"):
            read_segment(path)


def _other_layout(layout: str, fields: dict) -> bytes:
    """A well-formed image — every CRC right — in a layout seals never
    write."""
    if layout == "zlib":
        return general_image(**fields, codec=1)
    if layout == "unpadded":
        return general_image(**fields, pad=False)
    if layout == "three core columns":
        return general_image(**fields, core_columns=("t", "x", "y"))
    if layout == "columns reordered":
        return general_image(**fields, core_columns=("x", "t", "y", "s"))
    image = general_image(**fields)
    (header_len,) = struct.unpack_from("<I", image, 8)
    header = bytearray(image[_PREAMBLE_LEN : _PREAMBLE_LEN + header_len])
    at = _CORE_CODEC_AT if layout == "unknown codec" else _CORE_DTYPE_AT
    header[at - _PREAMBLE_LEN] = 9
    return _reheader(image, bytes(header))


_OTHER_LAYOUTS = [
    "zlib", "unpadded", "three core columns", "columns reordered",
    "unknown codec", "unknown dtype",
]  # fmt: skip


class TestOtherLayoutsAreRefused:
    """Seals write one layout and the reader reads only it: an image in
    any other passes its header CRC and is still corrupt."""

    @pytest.mark.parametrize("how", _HOW)
    @pytest.mark.parametrize("layout", _OTHER_LAYOUTS)
    def test_refused(self, tmp_path, layout, how):
        fields = _fields(_batch(9, seed=2))
        # With its defaults the writer (``tests/segment_layouts.py``)
        # writes the seal image byte for byte, so the layout asked for
        # differs from the seal layout in that alone.
        assert general_image(**fields) == encode_segment(**fields)
        image = _other_layout(layout, fields)
        (header_len,) = struct.unpack_from("<I", image, 8)
        header = image[_PREAMBLE_LEN : _PREAMBLE_LEN + header_len]
        assert zlib.crc32(header) == struct.unpack_from("<I", image, 12)[0]
        with pytest.raises(
            SegmentCorrupt, match="segment header is not the layout seals write"
        ):
            _read(how, tmp_path, image, 9)

    def test_the_header_checksum_is_checked_first(self, tmp_path):
        """A zlib image whose header is also damaged reads as a failed
        checksum, as a damaged seal image does."""
        image = bytearray(_other_layout("zlib", _fields(_batch(9, seed=2))))
        image[_CORE_CODEC_AT] ^= 0xFF
        with pytest.raises(SegmentCorrupt, match="header failed its checksum"):
            _read("file", tmp_path, bytes(image), 9)


class TestPackedImages:
    """A pack is images concatenated; each reads back on its own, by one
    ``pread`` of its extent, under every check a standalone file gets."""

    @staticmethod
    def _pack(tmp_path, sizes=(1, 6, 7, 50)):
        fields = [
            _fields(_batch(n, seed=k), shard=k, window_c=10 + k, stamp=k)
            for k, n in enumerate(sizes)
        ]
        images = [encode_segment(**f) for f in fields]
        path = tmp_path / "pack.seg"
        path.write_bytes(b"".join(images))
        extents, offset = [], 0
        for image in images:
            extents.append((offset, len(image)))
            offset += len(image)
        return path, fields, images, extents

    @staticmethod
    def _fault_in(path, offset, length, key):
        """What the store's fault-in does: one ``pread`` of the extent."""
        with open(path, "rb") as f:
            f.seek(offset)
            data = f.read(length)
        return decode_packed_slice(data, (path.name, offset, length), key)

    def test_raw_images_are_multiples_of_eight(self, tmp_path):
        _, _, images, _ = self._pack(tmp_path)
        assert all(len(image) % 8 == 0 for image in images)

    def test_each_extent_reads_its_own_slice(self, tmp_path):
        path, fields, _, extents = self._pack(tmp_path)
        for k, (offset, length) in enumerate(extents):
            key = (k, 10 + k, len(fields[k]["batch"]))
            batch, gids = self._fault_in(path, offset, length, key)
            _assert_holds(batch, gids, fields[k])

    def test_a_wrong_extent_is_detected(self, tmp_path):
        """Too long, too short, shifted or past the end of the pack: the
        image checks catch every one."""
        path, fields, images, extents = self._pack(tmp_path)
        (o1, n1), (o2, n2) = extents[1], extents[2]
        key = (1, 11, 6)
        for offset, length in [
            (o1, n1 + n2),  # runs into the next image
            (o1, n1 - 8),  # cut short
            (o1 + 8, n1),  # shifted
            (o2, n2 + 8),  # past the end of a cut pack
        ]:
            if offset == o2:
                path.write_bytes(b"".join(images[:3]))
                key = (2, 12, 7)
            with pytest.raises(SegmentCorrupt):
                self._fault_in(path, offset, length, key)

    def test_corruption_names_the_extent(self, tmp_path):
        path, _, _, extents = self._pack(tmp_path)
        offset, length = extents[2]
        data = bytearray(path.read_bytes())
        data[offset + length - 1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(
            SegmentCorrupt,
            match=rf"pack\.seg\[{offset}:{offset + length}\]: group 'gids' failed",
        ):
            self._fault_in(path, offset, length, (2, 12, 7))
        self._fault_in(path, *extents[1], (1, 11, 6))  # its neighbours still read


class TestEveryImageASealWrites:
    def test_reads_back_the_rows_it_sealed(self, tmp_path):
        """Every extent a tiered seal writes holds the slice's rows,
        gids, stamp and sketch, bit for bit as a plain router holds them."""
        rng = np.random.default_rng(3)
        n = 2000
        stream = TupleBatch(
            np.cumsum(rng.uniform(1.0, 30.0, n)),
            rng.uniform(-500.0, 6500.0, n),
            rng.uniform(-500.0, 4500.0, n),
            rng.uniform(350.0, 600.0, n),
        )
        grid = RegionGrid(BoundingBox(0.0, 0.0, 6000.0, 4000.0), nx=2, ny=2)
        plain = ShardRouter(grid, h=150)
        router = TieredShardRouter(grid, h=150, data_dir=tmp_path, memory_windows=4)
        try:
            for lo in range(0, n, 700):
                router.ingest(stream.slice(lo, min(lo + 700, n)))
                plain.ingest(stream.slice(lo, min(lo + 700, n)))
            extents = dict(router._store._slices)
        finally:
            router.close()
        assert len(extents) > 20
        for (s, c), (name, offset, length) in extents.items():
            data = (tmp_path / "segments" / name).read_bytes()[offset : offset + length]
            segment = segments.decode_segment(data, name)
            want = dict(
                shard=s, window_c=c, h=150, stamp=plain.shard_window_epoch(s, c),
                batch=plain.shard_window(s, c), gids=plain.shard_window_gids(s, c),
                sketch=plain.shard_window_sketch(s, c),
            )  # fmt: skip
            _assert_holds(segment.batch, segment.gids, want)
            _assert_header(segment, want)


class TestAtomicity:
    def test_no_temp_files_after_write(self, tmp_path):
        path = tmp_path / "a.seg"
        _write(path, _batch(10))
        assert [p.name for p in tmp_path.iterdir()] == ["a.seg"]


def _pinned_fields(n: int) -> dict:
    """The fixed slice whose seal image is pinned below."""
    batch = _batch(n, seed=11)
    return dict(
        shard=3, window_c=17, h=240, stamp=42, batch=batch,
        gids=np.arange(1000, 1000 + n, dtype=np.int64),
        sketch=WindowSketch.of(batch) if n else WindowSketch.EMPTY,
    )  # fmt: skip


#: Every single-byte flip (``^ 0xFF``) of :func:`_table_image` and the
#: :class:`SegmentCorrupt` message it reads as, after the ``where:``
#: prefix: ``(first offset, end offset, message)``.
_FLIP_TABLE = [
    (0, 4, "not a segment file"),
    (4, 5, "unsupported segment version 254"),
    (5, 6, "unsupported segment version 65281"),
    (6, 7, "unsupported segment version 16711681"),
    (7, 8, "unsupported segment version 4278190081"),
    (8, 216, "segment header failed its checksum"),
    (216, 408, "group 'core' failed its checksum"),
    (408, 456, "group 'gids' failed its checksum"),
]
#: Every truncation of :func:`_table_image` to ``length`` bytes:
#: ``(first length, end length, message)``.
_CUT_TABLE = [
    (0, 16, "truncated segment preamble"),
    (16, 216, "segment header failed its checksum"),
    (216, 456, "file length disagrees with its group directory"),
]


def _table_image() -> bytes:
    batch = _batch(6, seed=3)
    return encode_segment(
        shard=3, window_c=17, h=240, stamp=42, batch=batch,
        gids=np.arange(6, dtype=np.int64), sketch=WindowSketch.of(batch),
    )  # fmt: skip


def _message_ranges(images, read) -> list:
    """``(first, end, message)`` runs of what ``read`` says of each image
    in turn (``None`` for an image it accepts)."""
    runs = []
    for k, image in enumerate(images):
        message = read(image)
        if runs and runs[-1][1] == k and runs[-1][2] == message:
            runs[-1] = (runs[-1][0], k + 1, message)
        else:
            runs.append((k, k + 1, message))
    return runs


def _file_reader(path):
    def read(image: bytes):
        path.write_bytes(image)
        with pytest.raises(SegmentCorrupt) as err:
            read_segment(path)
        prefix = f"{path}: "
        assert str(err.value).startswith(prefix)
        return str(err.value)[len(prefix) :]

    return read


def _pack_reader(image: bytes):
    where = ("pack-w00000003.seg", 4096, len(image))
    with pytest.raises(SegmentCorrupt) as err:
        segments.decode_packed_slice(image, where, (3, 17, 6))
    prefix = f"pack-w00000003.seg[4096:{4096 + len(image)}]: "
    assert str(err.value).startswith(prefix)
    return str(err.value)[len(prefix) :]


class TestSealLayoutPins:
    """The bytes a seal writes and the message every damaged image reads
    as, pinned: the reader may change, these may not."""

    @pytest.mark.parametrize(
        "n, digest",
        [
            (0, "c72b958e66e8f913ae28fae7cd5750f007f4dc8bd1fba200d3db0d36aade738e"),
            (60, "3c5188f4153e637665747de5257ee33f81a5972867e10e97833b15c24562188f"),
        ],
    )
    def test_image_bytes(self, n, digest):
        image = encode_segment(**_pinned_fields(n))
        assert len(image) == 216 + 40 * n
        assert hashlib.sha256(image).hexdigest() == digest

    def test_tiered_pack_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 400
        stream = TupleBatch(
            np.cumsum(rng.uniform(1.0, 30.0, n)),
            rng.uniform(-500.0, 6500.0, n),
            rng.uniform(-500.0, 4500.0, n),
            rng.uniform(350.0, 600.0, n),
        )
        grid = RegionGrid(BoundingBox(0.0, 0.0, 6000.0, 4000.0), nx=2, ny=2)
        with TieredShardRouter(grid, h=50, data_dir=tmp_path, wal_sync=False) as router:
            for lo in range(0, 390, 130):
                router.ingest(stream.slice(lo, lo + 130))
            assert router.sealed_window_count() == 7
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "segments").iterdir()
        }
        assert digests == {
            "pack-w00000000.seg": "6aed8bef71ef70a1d395f2ebff9175817ff11658ca277f92c4476b48a6d43130",
            "pack-w00000002.seg": "a1a6a8cb8d7f80dce59ade03f05eb0ecfe49d2e8eec58d900d909e5416cb82c3",
            "pack-w00000005.seg": "36748ae74e46f52ea551f1a1842e79944c0a1b935b39a8baeb64920585cbc648",
        }
        manifest = (tmp_path / "MANIFEST.json").read_bytes()
        assert (
            hashlib.sha256(manifest).hexdigest()
            == "71450301ebb7ecc1bf3b99accb401113f0ac2209ca7303d7da2732105773b124"
        )

    @pytest.mark.parametrize("as_", ["file", "pack extent"])
    def test_every_byte_flip_reads_as_the_table_says(self, tmp_path, as_):
        image = _table_image()
        flipped = []
        for offset in range(len(image)):
            data = bytearray(image)
            data[offset] ^= 0xFF
            flipped.append(bytes(data))
        read = _file_reader(tmp_path / "a.seg") if as_ == "file" else _pack_reader
        assert _message_ranges(flipped, read) == _FLIP_TABLE

    @pytest.mark.parametrize("as_", ["file", "pack extent"])
    def test_every_truncation_reads_as_the_table_says(self, tmp_path, as_):
        image = _table_image()
        cuts = [image[:length] for length in range(len(image))]
        read = _file_reader(tmp_path / "a.seg") if as_ == "file" else _pack_reader
        assert _message_ranges(cuts, read) == _CUT_TABLE
