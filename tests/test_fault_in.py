"""The tiered store's fault-in: a sealed slice's pack extent decoded
straight into ``(batch, gids)``.

:func:`~repro.storage.segments.decode_packed_slice` is what every
fault-in of a sealed slice runs.  For every image a seal writes it gives
the encoder's input columns bit for bit; for every damaged image it
gives the :class:`~repro.storage.segments.SegmentCorrupt` message
:func:`_expected_message` derives from the layout — the short read,
then the preamble, the header CRC, the image length, each group's CRC,
then the slice key — and an image in another layout is refused.  The
store keeps a few pack descriptors open between fault-ins; ``close()``
and ``compact()`` release them.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.storage import tiered
from repro.storage.segments import (
    CORE_COLUMNS,
    SegmentCorrupt,
    decode_packed_slice,
    encode_segment,
)
from repro.storage.sketch import WindowSketch
from repro.storage.tiered import TieredShardRouter
from segment_layouts import general_image

_SETTINGS = settings(max_examples=60, deadline=None)

#: Preamble and padded header of a sealed image: its payloads start here,
#: ``core`` (32 bytes a row) first, then ``gids`` (8 bytes a row).
_PAYLOAD_AT = 216


def _fields(n: int, seed: int, shard: int = 2, window_c: int = 9, stamp: int = 4):
    rng = np.random.default_rng(seed)
    batch = TupleBatch(
        np.cumsum(rng.uniform(0.5, 5.0, n)),
        rng.uniform(-500.0, 6500.0, n),
        rng.uniform(-500.0, 4500.0, n),
        rng.uniform(350.0, 600.0, n),
    )
    return dict(
        shard=shard, window_c=window_c, h=240, stamp=stamp, batch=batch,
        gids=np.sort(rng.choice(10 * n + 10, n, replace=False)).astype(np.int64),
        sketch=WindowSketch.of(batch) if n else WindowSketch.EMPTY,
    )  # fmt: skip


def _image(n: int, seed: int, shard: int = 2, window_c: int = 9, stamp: int = 4):
    return encode_segment(**_fields(n, seed, shard, window_c, stamp))


def _expected_message(n: int, damage) -> str:
    """The message after ``where:`` that an image of ``n`` rows reads
    as, for ``("flip", offset, mask)`` (the byte at ``offset`` xor'd
    with ``mask``) or ``("cut", length)`` (the image's first ``length``
    bytes under an extent of that length) — from the layout alone."""
    if damage[0] == "cut":
        length = damage[1]
        if length < 16:
            return "truncated segment preamble"
        if length < _PAYLOAD_AT:
            return "segment header failed its checksum"
        return "file length disagrees with its group directory"
    _, offset, mask = damage
    if offset < 4:
        return "not a segment file"
    if offset < 8:
        return f"unsupported segment version {1 ^ (mask << 8 * (offset - 4))}"
    if offset < _PAYLOAD_AT:
        return "segment header failed its checksum"
    if offset < _PAYLOAD_AT + 32 * n:
        return "group 'core' failed its checksum"
    return "group 'gids' failed its checksum"


def _message(data: bytes, where, key) -> str:
    with pytest.raises(SegmentCorrupt) as err:
        decode_packed_slice(data, where, key)
    name, offset, length = where
    prefix = f"{name}[{offset}:{offset + length}]: "
    assert str(err.value).startswith(prefix)
    return str(err.value)[len(prefix) :]


class TestLeanDecode:
    @_SETTINGS
    @given(
        n=st.integers(0, 90),
        seed=st.integers(0, 2**31 - 1),
        shard=st.integers(0, 2**32 - 1),
        window_c=st.integers(0, 2**64 - 1),
        offset=st.integers(0, 2**40),
    )
    def test_gives_the_encoders_columns(self, n, seed, shard, window_c, offset):
        fields = _fields(n, seed, shard, window_c)
        data = encode_segment(**fields)
        where = ("pack-w00000003.seg", offset, len(data))
        batch, gids = decode_packed_slice(data, where, (shard, window_c, n))
        for name in CORE_COLUMNS:
            assert getattr(batch, name).tobytes() == getattr(fields["batch"], name).tobytes()
        assert gids.tobytes() == fields["gids"].tobytes()
        for column in (*(getattr(batch, c) for c in CORE_COLUMNS), gids):
            assert column.ndim == 1 and len(column) == n
            assert column.flags.aligned and not column.flags.writeable
        assert batch.t.dtype == np.float64 and gids.dtype == np.int64

    @_SETTINGS
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
        at=st.floats(0.0, 1.0, exclude_max=True),
        bit=st.integers(0, 7),
        cut=st.integers(0, 24),
    )
    def test_every_corruption_reads_as_the_layout_says(self, n, seed, at, bit, cut):
        """A flipped bit anywhere in the image, the image cut short (its
        extent too), and a right image under another slice's key."""
        data = _image(n, seed)
        offset = int(at * len(data))
        flipped = bytearray(data)
        flipped[offset] ^= 1 << bit
        where = ("pack-w00000000.seg", 4096, len(data))
        assert _message(bytes(flipped), where, (2, 9, n)) == _expected_message(
            n, ("flip", offset, 1 << bit)
        )
        short = data[: len(data) - 1 - cut]
        assert _message(short, where, (2, 9, n)) == f"pack ends {1 + cut} bytes short"
        where = ("pack-w00000000.seg", 4096, len(short))
        assert _message(short, where, (2, 9, n)) == _expected_message(
            n, ("cut", len(short))
        )
        where = ("pack-w00000000.seg", 4096, len(data))
        for key in ((3, 9, n), (2, 8, n), (2, 9, n + 1)):
            assert _message(data, where, key) == (
                f"holds (shard, window, rows) (2, 9, {n}), the router expects {key}"
            )

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("header", "pack-w00000007.seg[64:{end}]: segment header failed its checksum"),
            ("core", "pack-w00000007.seg[64:{end}]: group 'core' failed its checksum"),
            ("gids", "pack-w00000007.seg[64:{end}]: group 'gids' failed its checksum"),
            ("short", "pack-w00000007.seg[64:{end}]: pack ends 8 bytes short"),
            (
                "key",
                "pack-w00000007.seg[64:{end}]: holds (shard, window, rows) (2, 9, 12), "
                "the router expects (2, 10, 12)",
            ),
        ],
    )
    def test_named_corruptions(self, damage, message):
        n = 12
        data = bytearray(_image(n, seed=5))
        where = ("pack-w00000007.seg", 64, len(data))
        key = (2, 10, n) if damage == "key" else (2, 9, n)
        if damage == "header":
            data[40] ^= 0x10  # a sketch bound
        elif damage == "core":
            data[_PAYLOAD_AT + 32 * n - 1] ^= 0x01
        elif damage == "gids":
            data[-3] ^= 0x80
        elif damage == "short":
            data = data[:-8]
        expected = message.format(end=64 + where[2])
        with pytest.raises(SegmentCorrupt) as err:
            decode_packed_slice(bytes(data), where, key)
        assert str(err.value) == expected

    def test_a_zlib_image_is_refused(self):
        """A zlib image (what an older seal could write) is not the seal
        layout: refused before the key is looked at."""
        fields = _fields(7, seed=1, shard=1, window_c=3)
        data = general_image(**fields, codec=1)
        where = ("pack-w00000001.seg", 0, len(data))
        for key in ((1, 3, 7), (1, 4, 7)):
            assert _message(data, where, key) == (
                "segment header is not the layout seals write "
                "(raw, padded core and gids groups)"
            )


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.usefixtures("leak_check")
class TestPackDescriptors:
    @staticmethod
    def _router(tmp_path, packs: int):
        rng = np.random.default_rng(4)
        n = 100 * packs
        stream = TupleBatch(
            np.cumsum(rng.uniform(1.0, 30.0, n)),
            rng.uniform(0.0, 6000.0, n),
            rng.uniform(0.0, 4000.0, n),
            rng.uniform(350.0, 600.0, n),
        )
        grid = RegionGrid(BoundingBox(0.0, 0.0, 6000.0, 4000.0), nx=2, ny=2)
        router = TieredShardRouter(
            grid, h=50, data_dir=tmp_path, memory_windows=1, wal_sync=False
        )
        for lo in range(0, n, 100):  # two windows, one pack, per ingest
            router.ingest(stream.slice(lo, lo + 100))
        return router

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_a_bounded_few_stay_open_and_close_releases_them(self, tmp_path):
        router = self._router(tmp_path, packs=tiered._OPEN_PACKS + 4)
        try:
            baseline = _open_fds()
            sealed = router.sealed_window_count()
            for c in range(sealed):
                for s in range(router.n_shards):
                    router.shard_window(s, c)
            store = router._store
            assert router.faults > tiered._OPEN_PACKS
            assert len(store._packs) == tiered._OPEN_PACKS
            assert _open_fds() == baseline + tiered._OPEN_PACKS
            # Reading the windows again faults the same packs back in.
            assert list(store._packs)[-1] == store._slices[(s, sealed - 1)][0]
        finally:
            router.close()
        assert not router._store._packs

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_compact_releases_them_and_verifies_from_fresh_opens(self, tmp_path):
        router = self._router(tmp_path, packs=3)
        try:
            baseline = _open_fds()
            for c in range(router.sealed_window_count()):
                router.shard_window(0, c)
            assert _open_fds() > baseline
            report = router.compact(verify=True)
            assert report["segments_verified"] > 0
            assert not router._store._packs
            assert _open_fds() == baseline
        finally:
            router.close()
