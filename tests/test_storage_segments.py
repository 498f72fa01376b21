"""Tests for repro.storage.segments — the immutable sealed-window files.

The durable tier's correctness rests on two properties of this format:
round-trips are *byte-exact* (float64 columns, NaN/inf payloads and all),
and any single corrupted or missing byte surfaces as
:class:`SegmentCorrupt` rather than silently wrong rows.  Both are
checked exhaustively here: hypothesis drives the round-trip over random
lengths and pathological floats, and the corruption tests flip / drop
*every byte offset* of a small segment.
"""

import struct
import zlib
from unittest import mock

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
    decode_segment,
    encode_segment,
    read_packed_segment,
    read_segment,
    read_segment_meta,
    segment_filename,
    write_segment,
)
from repro.storage.sketch import WindowSketch
from repro.storage.tiered import TieredShardRouter

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


def _write(path, batch, gids=None, **kwargs) -> int:
    if gids is None:
        gids = np.arange(len(batch), dtype=np.int64)
    defaults = dict(
        shard=3, window_c=17, h=240, stamp=42, sketch=WindowSketch.of(batch)
    )
    defaults.update(kwargs)
    return write_segment(path, batch=batch, gids=gids, **defaults)


class TestRoundTrip:
    def test_columns_and_gids_byte_exact(self, tmp_path):
        batch = _batch(100)
        gids = np.arange(500, 600, dtype=np.int64)
        path = tmp_path / segment_filename(3, 17)
        size = _write(path, batch, gids)
        assert size == path.stat().st_size
        seg = read_segment(path)
        out = seg.batch()
        for name in CORE_COLUMNS:
            assert getattr(out, name).tobytes() == getattr(batch, name).tobytes()
        assert seg.gids().tobytes() == gids.tobytes()
        assert seg.gids().dtype == np.dtype("<i8")

    def test_meta_round_trip(self, tmp_path):
        batch = _batch(7)
        sketch = WindowSketch.of(batch)
        path = tmp_path / "a.seg"
        _write(path, batch, shard=5, window_c=9, h=100, stamp=1234, sketch=sketch)
        meta = read_segment_meta(path)
        assert (meta.shard, meta.window_c, meta.h) == (5, 9, 100)
        assert (meta.n_rows, meta.stamp) == (7, 1234)
        assert meta.sketch == sketch
        # Header-only read agrees with the full read.
        assert read_segment(path).meta == meta

    def test_empty_slice_round_trips(self, tmp_path):
        path = tmp_path / "empty.seg"
        _write(path, TupleBatch.empty(), sketch=WindowSketch.EMPTY)
        seg = read_segment(path)
        assert seg.meta.n_rows == 0
        assert len(seg.batch()) == 0
        assert len(seg.gids()) == 0
        assert seg.meta.sketch is WindowSketch.EMPTY

    def test_uncompressed_round_trips(self, tmp_path):
        batch = _batch(50)
        path = tmp_path / "raw.seg"
        _write(path, batch, compress=False)
        out = read_segment(path).batch()
        assert out.t.tobytes() == batch.t.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 6, 7, 50])
    def test_raw_columns_are_aligned_read_only_views(self, tmp_path, n):
        """The directory is 198 bytes, not a multiple of 8: the writer
        pads it so the payloads start 8-aligned, and the five columns of
        a raw segment are aligned, read-only, zero-copy views."""
        path = tmp_path / "raw.seg"
        size = _write(path, _batch(n))
        data = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", data, 8)
        assert header_len == _NATURAL_HEADER_LEN + 2
        assert (_PREAMBLE_LEN + header_len) % 8 == 0
        pad = data[_PREAMBLE_LEN + _NATURAL_HEADER_LEN : _PREAMBLE_LEN + header_len]
        assert pad == b"\0\0"
        assert size == _PREAMBLE_LEN + header_len + 5 * 8 * n
        seg = read_segment(path)
        out = seg.batch()
        for arr in (out.t, out.x, out.y, out.s, seg.gids()):
            assert arr.flags.aligned
            assert not arr.flags.writeable
            assert not arr.flags.owndata

    @pytest.mark.parametrize("compress", [False, True])
    def test_unpadded_header_still_reads(self, tmp_path, compress):
        """Files from before the padding rule (header ends at the
        directory) read back exactly under both codecs."""
        batch = _batch(9, seed=5)
        path = tmp_path / "old.seg"
        _write(path, batch, compress=compress)
        data = path.read_bytes()
        header = data[_PREAMBLE_LEN : _PREAMBLE_LEN + _NATURAL_HEADER_LEN]
        path.write_bytes(_reheader(data, header))
        seg = read_segment(path)
        for name in CORE_COLUMNS:
            assert (
                getattr(seg.batch(), name).tobytes()
                == getattr(batch, name).tobytes()
            )
        assert seg.gids().tobytes() == np.arange(9, dtype=np.int64).tobytes()

    def test_compression_shrinks_redundant_payloads(self, tmp_path):
        n = 2000
        batch = TupleBatch(
            np.arange(n, dtype=float),
            np.zeros(n),
            np.zeros(n),
            np.full(n, 400.0),
        )
        raw = _write(tmp_path / "raw.seg", batch, compress=False)
        packed = _write(tmp_path / "zip.seg", batch, compress=True)
        assert packed < raw

    @_SETTINGS
    @given(
        rows=st.lists(
            st.tuples(_floats, _floats, _floats, _floats), min_size=1, max_size=60
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        compress=st.booleans(),
    )
    def test_random_payloads_round_trip_exactly(
        self, tmp_path, rows, seed, compress
    ):
        """Any float64 payload — NaN, ±inf, -0.0 — reads back bit-identical."""
        cols = [np.array(col, dtype=np.float64) for col in zip(*rows)]
        batch = TupleBatch(*cols)
        rng = np.random.default_rng(seed)
        gids = np.sort(rng.choice(10**6, size=len(batch), replace=False)).astype(
            np.int64
        )
        path = tmp_path / "prop.seg"
        _write(path, batch, gids, compress=compress)
        seg = read_segment(path)
        out = seg.batch()
        for name in CORE_COLUMNS:
            assert getattr(out, name).tobytes() == getattr(batch, name).tobytes()
        assert seg.gids().tobytes() == gids.tobytes()
        assert seg.meta.n_rows == len(batch)

    def test_gid_batch_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="align"):
            _write(tmp_path / "bad.seg", _batch(5), np.arange(4, dtype=np.int64))


class TestSelectiveRead:
    def test_core_only_skips_gids(self, tmp_path):
        path = tmp_path / "a.seg"
        _write(path, _batch(20))
        seg = read_segment(path, groups=("core",))
        assert set(seg.groups) == {"core"}
        assert len(seg.batch()) == 20
        with pytest.raises(KeyError):
            seg.gids()

    def test_gids_only_skips_core(self, tmp_path):
        path = tmp_path / "a.seg"
        _write(path, _batch(20))
        seg = read_segment(path, groups=("gids",))
        assert set(seg.groups) == {"gids"}
        assert len(seg.gids()) == 20

    def test_unknown_group_rejected(self, tmp_path):
        path = tmp_path / "a.seg"
        _write(path, _batch(5))
        with pytest.raises(KeyError, match="models"):
            read_segment(path, groups=("core", "models"))

    def test_skipped_group_is_not_validated(self, tmp_path):
        """Corruption confined to an unread group stays invisible — the
        reader never touches those payload bytes (that is the point of
        column groups); reading the group does detect it."""
        path = tmp_path / "a.seg"
        _write(path, _batch(20), compress=False)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # last byte: inside the trailing gids payload
        path.write_bytes(bytes(data))
        read_segment(path, groups=("core",))  # fine
        with pytest.raises(SegmentCorrupt):
            read_segment(path, groups=("gids",))


class TestCorruptionDetection:
    @pytest.mark.parametrize("compress", [False, True])
    def test_every_single_byte_flip_is_detected(self, tmp_path, compress):
        """Flip each byte of a small segment in turn: every read must fail
        loudly with SegmentCorrupt — magic, version, header, directory and
        payload corruption alike."""
        path = tmp_path / "a.seg"
        _write(path, _batch(6, seed=3), compress=compress)
        pristine = path.read_bytes()
        for offset in range(len(pristine)):
            data = bytearray(pristine)
            data[offset] ^= 0xFF
            path.write_bytes(bytes(data))
            with pytest.raises(SegmentCorrupt):
                read_segment(path)
        path.write_bytes(pristine)
        read_segment(path)  # the pristine image still reads

    def test_every_truncation_is_detected(self, tmp_path):
        path = tmp_path / "a.seg"
        _write(path, _batch(6, seed=4), compress=False)
        pristine = path.read_bytes()
        for length in range(len(pristine)):
            path.write_bytes(pristine[:length])
            with pytest.raises(SegmentCorrupt):
                read_segment(path)

    def test_every_truncation_of_a_zlib_segment_is_detected(self, tmp_path):
        path = tmp_path / "a.seg"
        _write(path, _batch(6, seed=4), compress=True)
        pristine = path.read_bytes()
        for length in range(len(pristine)):
            path.write_bytes(pristine[:length])
            with pytest.raises(SegmentCorrupt):
                read_segment(path)

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("groups", [("core", "gids"), ("core",)])
    def test_appended_bytes_are_detected(self, tmp_path, compress, groups):
        """The file ends where the directory says the last group ends:
        anything after it is corruption, whichever groups are read."""
        path = tmp_path / "a.seg"
        _write(path, _batch(6, seed=3), compress=compress)
        pristine = path.read_bytes()
        for extra in (b"\0", b"\xff" * 8, pristine):
            path.write_bytes(pristine + extra)
            with pytest.raises(SegmentCorrupt, match="file length"):
                read_segment(path, groups=groups)

    @pytest.mark.parametrize(
        "offset,match",
        [(_CORE_CODEC_AT, "unknown codec"), (_CORE_DTYPE_AT, "malformed")],
    )
    def test_wellformed_checksum_over_a_bad_directory(self, tmp_path, offset, match):
        """A header whose CRC is right but whose directory names a codec
        or dtype this reader does not know is corrupt, not a crash."""
        path = tmp_path / "a.seg"
        _write(path, _batch(6))
        data = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", data, 8)
        header = bytearray(data[_PREAMBLE_LEN : _PREAMBLE_LEN + header_len])
        header[offset - _PREAMBLE_LEN] = 9
        path.write_bytes(_reheader(data, bytes(header)))
        with pytest.raises(SegmentCorrupt, match=match):
            read_segment(path)

    def test_truncated_meta_read_is_detected(self, tmp_path):
        path = tmp_path / "a.seg"
        _write(path, _batch(6))
        pristine = path.read_bytes()
        path.write_bytes(pristine[:10])
        with pytest.raises(SegmentCorrupt):
            read_segment_meta(path)

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
        with pytest.raises(SegmentCorrupt, match="version"):
            read_segment(path)


class TestPackedImages:
    """A pack is images concatenated; each reads back on its own, by one
    ``pread`` of its extent, under every check a standalone file gets."""

    @staticmethod
    def _pack(tmp_path, sizes=(1, 6, 7, 50)):
        batches = [_batch(n, seed=k) for k, n in enumerate(sizes)]
        images = [
            encode_segment(
                shard=k, window_c=10 + k, h=240, stamp=k, batch=batch,
                gids=np.arange(len(batch), dtype=np.int64),
                sketch=WindowSketch.of(batch),
            )  # fmt: skip
            for k, batch in enumerate(batches)
        ]
        path = tmp_path / "pack.seg"
        path.write_bytes(b"".join(images))
        extents, offset = [], 0
        for image in images:
            extents.append((offset, len(image)))
            offset += len(image)
        return path, images, extents

    def test_raw_images_are_multiples_of_eight(self, tmp_path):
        _, images, _ = self._pack(tmp_path)
        assert all(len(image) % 8 == 0 for image in images)

    def test_each_extent_reads_its_own_slice(self, tmp_path):
        path, images, extents = self._pack(tmp_path)
        for k, (offset, length) in enumerate(extents):
            seg = read_packed_segment(path, offset, length)
            assert seg.key == (k, 10 + k, len(seg.gids()))
            standalone = tmp_path / f"{k}.seg"
            standalone.write_bytes(images[k])
            alone = read_segment(standalone)
            for name in CORE_COLUMNS:
                assert (
                    getattr(seg.batch(), name).tobytes()
                    == getattr(alone.batch(), name).tobytes()
                )
            assert seg.gids().flags.aligned

    def test_a_wrong_extent_is_detected(self, tmp_path):
        """Too long, too short, shifted or past the end of the pack: the
        image checks catch every one."""
        path, images, extents = self._pack(tmp_path)
        (o1, n1), (o2, n2) = extents[1], extents[2]
        for offset, length in [
            (o1, n1 + n2),  # runs into the next image
            (o1, n1 - 8),  # cut short
            (o1 + 8, n1),  # shifted
            (o2, n2 + 8),  # past the end of a cut pack
        ]:
            if offset == o2:
                path.write_bytes(b"".join(images[:3]))
            with pytest.raises(SegmentCorrupt):
                read_packed_segment(path, offset, length)

    def test_corruption_names_the_extent(self, tmp_path):
        path, _, extents = self._pack(tmp_path)
        offset, length = extents[2]
        data = bytearray(path.read_bytes())
        data[offset + length - 1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentCorrupt, match=rf"\[{offset}:{offset + length}\]"):
            read_packed_segment(path, offset, length)
        read_packed_segment(path, *extents[1])  # its neighbours still read


def _general(data: bytes, groups=("core", "gids")):
    """:func:`decode_segment` with the seal-layout reader switched off:
    what the general parser alone makes of ``data``."""
    with mock.patch.object(segments, "_decode_sealed", lambda *_args: None):
        return decode_segment(data, "image", groups)


def _assert_same_segment(got, want) -> None:
    assert got.record == want.record
    assert list(got.groups) == list(want.groups)
    for name, columns in want.groups.items():
        assert list(got.groups[name]) == list(columns)
        for col, arr in columns.items():
            view = got.groups[name][col]
            assert view.dtype == arr.dtype and view.tobytes() == arr.tobytes()
            assert view.ndim == 1 and view.flags.aligned
            assert not view.flags.writeable and not view.flags.owndata


class TestSealedLayout:
    """Seals write one layout, and it is read with one struct unpack
    (``segments._decode_sealed``); the general parser is its oracle, and
    reads every other layout."""

    @_SETTINGS
    @given(
        n=st.integers(0, 70),
        seed=st.integers(0, 2**31 - 1),
        shard=st.integers(0, 2**32 - 1),
        window_c=st.integers(0, 2**64 - 1),
        stamp=st.integers(0, 2**64 - 1),
        groups=st.sampled_from(
            [("core", "gids"), ("gids", "core"), ("core",), ("gids",), ()]
        ),
    )
    def test_one_struct_parse_equals_the_general_parser(
        self, n, seed, shard, window_c, stamp, groups
    ):
        batch = _batch(n, seed)
        image = encode_segment(
            shard=shard, window_c=window_c, h=240, stamp=stamp, batch=batch,
            gids=np.arange(7, 7 + n, dtype=np.int64),
            sketch=WindowSketch.of(batch) if n else WindowSketch.EMPTY,
        )  # fmt: skip
        sealed = segments._decode_sealed(image, "image", groups)
        assert sealed is not None
        _assert_same_segment(sealed, _general(image, groups))

    def test_every_image_a_tiered_seal_writes_takes_it(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2000
        stream = TupleBatch(
            np.cumsum(rng.uniform(1.0, 30.0, n)),
            rng.uniform(-500.0, 6500.0, n),
            rng.uniform(-500.0, 4500.0, n),
            rng.uniform(350.0, 600.0, n),
        )
        grid = RegionGrid(BoundingBox(0.0, 0.0, 6000.0, 4000.0), nx=2, ny=2)
        router = TieredShardRouter(grid, h=150, data_dir=tmp_path, memory_windows=4)
        try:
            for lo in range(0, n, 700):
                router.ingest(stream.slice(lo, min(lo + 700, n)))
            extents = list(router._store._slices.values())
        finally:
            router.close()
        assert len(extents) > 20
        for name, offset, length in extents:
            data = (tmp_path / "segments" / name).read_bytes()[offset : offset + length]
            sealed = segments._decode_sealed(data, name, ("core", "gids"))
            assert sealed is not None
            _assert_same_segment(sealed, _general(data))

    @pytest.mark.parametrize(
        "layout", ["zlib", "unpadded", "three core columns", "future version"]
    )
    def test_every_other_layout_takes_the_general_parser(self, tmp_path, layout):
        batch = _batch(9, seed=2)
        fields = dict(
            shard=1, window_c=4, h=240, stamp=5, batch=batch,
            gids=np.arange(9, dtype=np.int64), sketch=WindowSketch.of(batch),
        )  # fmt: skip
        if layout == "three core columns":
            with mock.patch.object(segments, "CORE_COLUMNS", ("t", "x", "y")):
                image = encode_segment(**fields)
        else:
            image = encode_segment(**fields, compress=layout == "zlib")
        if layout == "unpadded":
            image = _reheader(
                image, image[_PREAMBLE_LEN : _PREAMBLE_LEN + _NATURAL_HEADER_LEN]
            )
        if layout == "future version":
            image = image[:4] + struct.pack("<I", 2) + image[8:]
        assert segments._decode_sealed(image, "image", ("core", "gids")) is None
        if layout == "future version":
            with pytest.raises(SegmentCorrupt, match="version"):
                decode_segment(image, "image")
            return
        segment = decode_segment(image, "image")
        assert segment.gids().tobytes() == fields["gids"].tobytes()
        assert segment.groups["core"]["x"].tobytes() == batch.x.tobytes()

    def test_a_group_it_does_not_hold_is_the_general_parsers_key_error(self):
        image = encode_segment(
            shard=1, window_c=4, h=240, stamp=5, batch=_batch(3),
            gids=np.arange(3, dtype=np.int64), sketch=WindowSketch.of(_batch(3)),
        )  # fmt: skip
        assert segments._decode_sealed(image, "image", ("core", "models")) is None
        with pytest.raises(KeyError, match="models"):
            decode_segment(image, "image", ("core", "models"))


class TestAtomicity:
    def test_no_temp_files_after_write(self, tmp_path):
        path = tmp_path / "a.seg"
        _write(path, _batch(10))
        assert [p.name for p in tmp_path.iterdir()] == ["a.seg"]

    def test_filename_layout(self):
        assert segment_filename(3, 17) == "seg-s0003-w00000017.seg"
        assert segment_filename(0, 0) == "seg-s0000-w00000000.seg"
