"""The tiered store's fault-in: a sealed slice's pack extent decoded
straight into ``(batch, gids)``.

:func:`~repro.storage.segments.decode_packed_slice` is what every
fault-in of a sealed slice runs.  Its oracle is the path it replaced:
:func:`~repro.storage.segments.read_packed_segment`'s short-read check,
the general segment parser, and the store's ``(shard, window, rows)``
check, in that order.  For every image a seal writes the two give the
same columns, and for every corruption the same
:class:`~repro.storage.segments.SegmentCorrupt` message.  The store
keeps a few pack descriptors open between fault-ins; ``close()`` and
``compact()`` release them.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.storage import segments, tiered
from repro.storage.segments import (
    CORE_COLUMNS,
    SegmentCorrupt,
    decode_packed_slice,
    decode_segment,
    encode_segment,
)
from repro.storage.sketch import WindowSketch
from repro.storage.tiered import TieredShardRouter

_SETTINGS = settings(max_examples=60, deadline=None)

#: Preamble and padded header of a sealed image: its payloads start here,
#: ``core`` (32 bytes a row) first, then ``gids`` (8 bytes a row).
_PAYLOAD_AT = 216


def _image(n: int, seed: int, shard: int = 2, window_c: int = 9, stamp: int = 4):
    rng = np.random.default_rng(seed)
    batch = TupleBatch(
        np.cumsum(rng.uniform(0.5, 5.0, n)),
        rng.uniform(-500.0, 6500.0, n),
        rng.uniform(-500.0, 4500.0, n),
        rng.uniform(350.0, 600.0, n),
    )
    return encode_segment(
        shard=shard, window_c=window_c, h=240, stamp=stamp, batch=batch,
        gids=np.sort(rng.choice(10 * n + 10, n, replace=False)).astype(np.int64),
        sketch=WindowSketch.of(batch) if n else WindowSketch.EMPTY,
    )  # fmt: skip


def _before(data: bytes, where, key):
    """A fault-in as it ran before the lean decode: the short read,
    the general parser (the seal-layout reader switched off), the key."""
    name, offset, length = where
    label = f"{name}[{offset}:{offset + length}]"
    if len(data) != length:
        raise SegmentCorrupt(f"{label}: pack ends {length - len(data)} bytes short")
    with mock.patch.object(segments, "_decode_sealed", lambda *_args: None):
        segment = decode_segment(data, label)
    if segment.key != key:
        raise SegmentCorrupt(
            f"{label}: holds (shard, window, rows) {segment.key}, "
            f"the router expects {key}"
        )
    return segment.batch(), segment.gids()


def _outcome(read):
    """What a read gives, comparably: the columns' bytes, or the error."""
    try:
        batch, gids = read()
    except SegmentCorrupt as exc:
        return "corrupt", str(exc)
    return "rows", tuple(getattr(batch, c).tobytes() for c in CORE_COLUMNS), gids.tobytes()


def _both(data: bytes, where, key):
    lean = _outcome(lambda: decode_packed_slice(data, where, key))
    assert lean == _outcome(lambda: _before(data, where, key))
    return lean


class TestLeanDecode:
    @_SETTINGS
    @given(
        n=st.integers(0, 90),
        seed=st.integers(0, 2**31 - 1),
        shard=st.integers(0, 2**32 - 1),
        window_c=st.integers(0, 2**64 - 1),
        offset=st.integers(0, 2**40),
    )
    def test_equals_the_general_parser(self, n, seed, shard, window_c, offset):
        data = _image(n, seed, shard, window_c)
        where = ("pack-w00000003.seg", offset, len(data))
        assert _both(data, where, (shard, window_c, n))[0] == "rows"
        batch, gids = decode_packed_slice(data, where, (shard, window_c, n))
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
    def test_every_corruption_is_reported_as_before(self, n, seed, at, bit, cut):
        """A flipped bit anywhere in the image, the image cut short, and
        a right image under another slice's key: the same outcome and
        message as the path it replaced."""
        data = _image(n, seed)
        where = ("pack-w00000000.seg", 4096, len(data))
        flipped = bytearray(data)
        flipped[int(at * len(data))] ^= 1 << bit
        assert _both(bytes(flipped), where, (2, 9, n))[0] == "corrupt"
        assert _both(data[: len(data) - 1 - cut], where, (2, 9, n))[0] == "corrupt"
        for key in ((3, 9, n), (2, 8, n), (2, 9, n + 1)):
            assert _both(data, where, key)[0] == "corrupt"

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
        with pytest.raises(SegmentCorrupt) as lean:
            decode_packed_slice(bytes(data), where, key)
        with pytest.raises(SegmentCorrupt) as before:
            _before(bytes(data), where, key)
        assert str(lean.value) == str(before.value) == expected

    def test_another_layout_takes_the_general_parser(self):
        """A zlib image (what an older seal could write) is not the
        seal layout: the general parser decodes it, and the key check
        still runs."""
        rng = np.random.default_rng(1)
        batch = TupleBatch(
            np.arange(7.0), rng.uniform(size=7), rng.uniform(size=7), rng.uniform(size=7)
        )
        data = encode_segment(
            shard=1, window_c=3, h=240, stamp=2, batch=batch,
            gids=np.arange(7, dtype=np.int64), sketch=WindowSketch.of(batch),
            compress=True,
        )  # fmt: skip
        where = ("pack-w00000001.seg", 0, len(data))
        got, gids = decode_packed_slice(data, where, (1, 3, 7))
        assert got.x.tobytes() == batch.x.tobytes()
        assert gids.tolist() == list(range(7))
        with pytest.raises(SegmentCorrupt, match=r"the router expects \(1, 4, 7\)"):
            decode_packed_slice(data, where, (1, 4, 7))


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
