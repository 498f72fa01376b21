"""Tests for repro.storage.tiered — the durable, bounded-memory tier.

Two oracles anchor everything here:

* **Tier invisibility** — a :class:`TieredShardRouter` must resolve
  every ``(shard, window)`` to bit-identical rows, gids and sketches as
  a plain in-memory :class:`ShardRouter` fed the same stream, and every
  query engine built over it must return byte-identical answers — hot
  or cold, capped or uncapped, sharded or not, pruning on, and through
  the process-parallel front end.
* **Durable recovery** — closing and reopening the data directory must
  reconstruct exactly the same state, including the unsealed tail that
  only the WAL holds.
"""

import json
import os

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.pipeline.binding import RouterBinding
from repro.query.sharded import ShardedQueryEngine
from repro.storage import fsio
from repro.storage.segments import SegmentCorrupt, decode_segment, encode_segment
from repro.storage.shards import ShardRouter
from repro.storage.sketch import WindowSketch
from repro.storage.tiered import TieredShardRouter
from segment_layouts import general_image

#: Every test here opens durable routers: none may leak a descriptor or a thread.
pytestmark = pytest.mark.usefixtures("leak_check")

BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
RADIUS_M = 1500.0


def make_stream(n: int, seed: int = 0) -> TupleBatch:
    rng = np.random.default_rng(seed)
    return TupleBatch(
        np.cumsum(rng.uniform(1.0, 30.0, n)),
        rng.uniform(-500.0, 6500.0, n),  # includes out-of-bounds positions
        rng.uniform(-500.0, 4500.0, n),
        rng.uniform(350.0, 600.0, n),
    )


def fill(router, stream: TupleBatch, pieces: int = 5) -> None:
    step = max(1, len(stream) // pieces)
    for start in range(0, len(stream), step):
        router.ingest(stream.slice(start, min(start + step, len(stream))))


def make_pair(tmp_path, stream, *, nx=2, ny=2, h=150, cap=None, pieces=5):
    """A tiered router and a plain router fed the identical batches."""
    grid = RegionGrid(BOUNDS, nx=nx, ny=ny)
    tiered = TieredShardRouter(
        grid, h=h, data_dir=tmp_path / "tier", memory_windows=cap
    )
    plain = ShardRouter(grid, h=h)
    fill(tiered, stream, pieces)
    fill(plain, stream, pieces)
    return tiered, plain


def assert_same_state(tiered, plain, epochs: bool = True) -> None:
    """Every protocol surface a plan consults must agree bit-for-bit.

    ``epochs=False`` skips the epoch stamps: they are cache keys, not
    content, and a recovered router legitimately re-stamps the replayed
    tail (the sealed stamps stay frozen either way).
    """
    assert tiered.n_shards == plain.n_shards
    assert tiered.global_count() == plain.global_count()
    assert tiered.shard_counts() == plain.shard_counts()
    assert tiered.global_window_count() == plain.global_window_count()
    for s in range(plain.n_shards):
        assert tiered.cuts(s) == plain.cuts(s)
    for c in range(plain.global_window_count()):
        for s in range(plain.n_shards):
            a, b = tiered.shard_window(s, c), plain.shard_window(s, c)
            for name in ("t", "x", "y", "s"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert (
                tiered.shard_window_gids(s, c).tobytes()
                == plain.shard_window_gids(s, c).tobytes()
            )
            assert tiered.shard_window_sketch(s, c) == plain.shard_window_sketch(
                s, c
            )
        if epochs:
            # Compare (stamp, rows); the trailing read-epoch field tracks
            # each router's own live epoch counter, not recovered state.
            assert [row[:2] for row in tiered.window_stats(c)] == [
                row[:2] for row in plain.window_stats(c)
            ]
        else:
            assert [rows for _, rows, _ in tiered.window_stats(c)] == [
                rows for _, rows, _ in plain.window_stats(c)
            ]


def read_manifest(data_dir) -> dict:
    return json.loads((data_dir / "MANIFEST.json").read_text())


def write_manifest(data_dir, doc: dict) -> None:
    (data_dir / "MANIFEST.json").write_text(json.dumps(doc, sort_keys=True) + "\n")


def slice_entries(doc: dict):
    """``(c, shard entry)`` of every sealed slice, in (window, shard) order."""
    for window in sorted(doc["windows"], key=lambda w: w["c"]):
        for entry in sorted(window["shards"], key=lambda e: e["s"]):
            yield window["c"], entry


def slice_image(data_dir, entry: dict) -> bytes:
    """The bytes a manifest entry names: its extent of a pack."""
    data = (data_dir / "segments" / entry["file"]).read_bytes()
    return data[entry["offset"] : entry["offset"] + entry["length"]]


def reencode(image: bytes, rows=slice(None), **layout) -> bytes:
    """An image with the same header fields holding ``rows`` of its
    slice — as another writer could have produced it, in the seal
    layout or, given ``layout`` (``general_image``'s ``codec=``,
    ``pad=``), another."""
    seg = decode_segment(image, "image")
    shard, window_c, h, n_rows, stamp, *bounds = seg.record
    write = general_image if layout else encode_segment
    return write(
        shard=shard, window_c=window_c, h=h, stamp=stamp,
        sketch=WindowSketch.restored(n_rows, bounds),
        batch=TupleBatch(*(getattr(seg.batch, n)[rows] for n in "txys")),
        gids=seg.gids[rows], **layout,
    )  # fmt: skip


def repack(data_dir, replace: dict) -> None:
    """Rewrite every pack with the images in ``replace`` (``(s, c) ->
    bytes``) substituted, and the manifest's extents to match — a pack
    and manifest restored together from another archive."""
    doc = read_manifest(data_dir)
    packs = {}
    for c, entry in slice_entries(doc):
        image = replace.get((entry["s"], c)) or slice_image(data_dir, entry)
        parts = packs.setdefault(entry["file"], [])
        entry["offset"] = sum(len(part) for part in parts)
        entry["length"] = len(image)
        parts.append(image)
    for name, parts in packs.items():
        (data_dir / "segments" / name).write_bytes(b"".join(parts))
    write_manifest(data_dir, doc)


def assert_same_answers(a, b) -> None:
    assert a.values.tobytes() == b.values.tobytes()
    np.testing.assert_array_equal(a.answered, b.answered)
    np.testing.assert_array_equal(a.support, b.support)


def probe_queries(stream: TupleBatch, n: int = 80, seed: int = 1) -> QueryBatch:
    rng = np.random.default_rng(seed)
    t0, t1 = float(stream.t[0]), float(stream.t[-1])
    return QueryBatch(
        rng.uniform(t0, t1, n),
        rng.uniform(BOUNDS.min_x, BOUNDS.max_x, n),
        rng.uniform(BOUNDS.min_y, BOUNDS.max_y, n),
    )


#: The router protocol: every method the query pipeline, the servers
#: and the rebalancer call on a router.
PROTOCOL = (
    "ingest", "route", "cuts", "epoch", "layout_epoch", "n_shards",
    "global_count", "global_window_count", "shard_counts",
    "shard_load_stats", "shard_window", "shard_windows",
    "shard_window_gids", "shard_window_epoch", "shard_window_sketch",
    "head", "window_stats", "snapshot_window",
    "snapshot_window_sketch", "windows_for_times", "window_for_time",
    "split_shard", "merge_cell",
)


class TestProtocolEquivalence:
    """Store-vs-store oracle: the resident store is the reference."""

    def test_tiered_router_defines_no_protocol_method(self):
        """One router, two stores: the durable router inherits the whole
        protocol, so a second copy of it cannot quietly return."""
        public = {name for name in vars(ShardRouter) if not name.startswith("_")}
        assert set(PROTOCOL) <= public
        assert issubclass(TieredShardRouter, ShardRouter)
        assert not public & set(vars(TieredShardRouter))

    def test_matches_plain_router_bit_for_bit(self, tmp_path):
        stream = make_stream(2000)
        tiered, plain = make_pair(tmp_path, stream, h=150, cap=3)
        with tiered:
            assert_same_state(tiered, plain)
            assert tiered.sealed_window_count() == 2000 // 150
            # Time routing agrees everywhere, including out-of-range times.
            ts = np.concatenate(
                [
                    [stream.t[0] - 100.0, stream.t[-1] + 100.0],
                    np.linspace(stream.t[0], stream.t[-1], 97),
                ]
            )
            np.testing.assert_array_equal(
                tiered.windows_for_times(ts), plain.windows_for_times(ts)
            )

    def test_single_shard(self, tmp_path):
        stream = make_stream(700, seed=5)
        tiered, plain = make_pair(tmp_path, stream, nx=1, ny=1, h=100, cap=2)
        with tiered:
            assert_same_state(tiered, plain)

    def test_epochs_track_plain_router_live(self, tmp_path):
        stream = make_stream(900, seed=2)
        tiered, plain = make_pair(tmp_path, stream, h=120)
        with tiered:
            for c in range(plain.global_window_count()):
                for s in range(plain.n_shards):
                    assert tiered.shard_window_epoch(
                        s, c
                    ) == plain.shard_window_epoch(s, c)

    def test_window_bounds_checked_like_plain(self, tmp_path):
        tiered = TieredShardRouter(
            RegionGrid(BOUNDS, nx=2, ny=1), h=50, data_dir=tmp_path / "t"
        )
        with tiered:
            tiered.ingest(make_stream(60))
            with pytest.raises(ValueError):
                tiered.shard_window(0, -1)
            with pytest.raises(IndexError):
                tiered.shard_window(0, 2)

    def test_empty_router_has_no_time_routing(self, tmp_path):
        with TieredShardRouter(
            RegionGrid(BOUNDS, nx=1, ny=1), h=10, data_dir=tmp_path / "t"
        ) as tiered:
            with pytest.raises(RuntimeError, match="no data"):
                tiered.windows_for_times([1.0])

    def test_constructor_validation(self, tmp_path):
        grid = RegionGrid(BOUNDS, nx=1, ny=1)
        with pytest.raises(ValueError, match="h must be positive"):
            TieredShardRouter(grid, h=0, data_dir=tmp_path / "a")
        with pytest.raises(ValueError, match="memory_windows"):
            TieredShardRouter(
                grid, h=10, data_dir=tmp_path / "b", memory_windows=0
            )


class TestDurableRecovery:
    def test_reopen_recovers_identical_state(self, tmp_path):
        stream = make_stream(1300, seed=3)
        tiered, plain = make_pair(tmp_path, stream, h=150, cap=3, pieces=7)
        tiered.close()
        # 1300 = 8 * 150 + 100: the last 100 rows exist only in the WAL.
        with TieredShardRouter.open(tmp_path / "tier", memory_windows=3) as again:
            assert again.h == 150
            assert again.sealed_window_count() == 8
            assert_same_state(again, plain, epochs=False)

    def test_recovery_is_idempotent(self, tmp_path):
        stream = make_stream(800, seed=4)
        tiered, plain = make_pair(tmp_path, stream, h=90)
        tiered.close()
        for _ in range(3):
            with TieredShardRouter.open(tmp_path / "tier") as again:
                assert_same_state(again, plain, epochs=False)

    def test_ingest_continues_after_reopen(self, tmp_path):
        stream = make_stream(1000, seed=6)
        grid = RegionGrid(BOUNDS, nx=2, ny=2)
        first, rest = stream.slice(0, 640), stream.slice(640, 1000)
        with TieredShardRouter(
            grid, h=100, data_dir=tmp_path / "tier"
        ) as tiered:
            fill(tiered, first, pieces=3)
        plain = ShardRouter(grid, h=100)
        plain.ingest(stream)
        with TieredShardRouter.open(tmp_path / "tier") as again:
            fill(again, rest, pieces=2)
            assert again.global_count() == 1000
            for c in range(plain.global_window_count()):
                for s in range(4):
                    assert (
                        again.shard_window_gids(s, c).tobytes()
                        == plain.shard_window_gids(s, c).tobytes()
                    )
                    assert again.shard_window(s, c).t.tobytes() == plain.shard_window(
                        s, c
                    ).t.tobytes()

    @pytest.mark.parametrize("n_rows", [640, 600])
    def test_reopen_restores_the_ingest_time_floor(self, tmp_path, n_rows):
        """The last accepted timestamp survives a reopen — from the WAL
        tail's rows (640 = 6 windows + 40), else from the last sealed
        window's sketches (600 = 6 windows exactly)."""
        stream = make_stream(1000, seed=6)
        grid = RegionGrid(BOUNDS, nx=2, ny=2)
        with TieredShardRouter(grid, h=100, data_dir=tmp_path / "tier") as tiered:
            fill(tiered, stream.slice(0, n_rows), pieces=3)
        with TieredShardRouter.open(tmp_path / "tier") as again:
            with pytest.raises(ValueError, match="last accepted"):
                again.ingest(stream.slice(n_rows - 20, n_rows + 20))
            assert again.global_count() == n_rows
            again.ingest(stream.slice(n_rows, 1000))
            assert again.global_count() == 1000

    def test_open_without_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no manifest"):
            TieredShardRouter.open(tmp_path / "nothing")

    def test_wrong_h_rejected(self, tmp_path):
        grid = RegionGrid(BOUNDS, nx=1, ny=1)
        TieredShardRouter(grid, h=50, data_dir=tmp_path / "t").close()
        with pytest.raises(ValueError, match="h=50"):
            TieredShardRouter(grid, h=60, data_dir=tmp_path / "t")

    def test_wrong_grid_rejected(self, tmp_path):
        TieredShardRouter(
            RegionGrid(BOUNDS, nx=2, ny=2), h=50, data_dir=tmp_path / "t"
        ).close()
        with pytest.raises(ValueError, match="different region grid"):
            TieredShardRouter(
                RegionGrid(BOUNDS, nx=4, ny=1), h=50, data_dir=tmp_path / "t"
            )

    def test_corrupt_manifest_rejected(self, tmp_path):
        TieredShardRouter(
            RegionGrid(BOUNDS, nx=1, ny=1), h=50, data_dir=tmp_path / "t"
        ).close()
        (tmp_path / "t" / "MANIFEST.json").write_text("{not json")
        with pytest.raises(ValueError, match="corrupt manifest"):
            TieredShardRouter.open(tmp_path / "t")

    def test_future_manifest_format_rejected(self, tmp_path):
        TieredShardRouter(
            RegionGrid(BOUNDS, nx=1, ny=1), h=50, data_dir=tmp_path / "t"
        ).close()
        path = tmp_path / "t" / "MANIFEST.json"
        doc = json.loads(path.read_text())
        doc["format"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported manifest format 99"):
            TieredShardRouter.open(tmp_path / "t")

    @pytest.mark.parametrize("opened_by", ["open", "constructor"])
    def test_a_format_1_manifest_is_refused(self, tmp_path, opened_by):
        """A directory sealed one file per slice (manifest format 1) is
        refused as it opens, by name, before any slice is read."""
        grid = RegionGrid(BOUNDS, nx=2, ny=2)
        with TieredShardRouter(grid, h=100, data_dir=tmp_path / "t") as router:
            fill(router, make_stream(450))
        doc = read_manifest(tmp_path / "t")
        assert doc["sealed_windows"] == 4
        doc["format"] = 1
        write_manifest(tmp_path / "t", doc)
        with pytest.raises(
            ValueError,
            match=r"unsupported manifest format 1 \(this reader opens format 2 only\)",
        ):
            if opened_by == "open":
                TieredShardRouter.open(tmp_path / "t")
            else:
                TieredShardRouter(grid, h=100, data_dir=tmp_path / "t")

    @pytest.mark.parametrize(
        "damage", ["no offset", "no length", "null offset"]
    )
    def test_an_entry_without_its_extent_is_refused(self, tmp_path, damage):
        """A format-2 entry must name where in its pack the image is;
        one that does not is a corrupt manifest, refused as it opens."""
        grid = RegionGrid(BOUNDS, nx=2, ny=2)
        with TieredShardRouter(grid, h=100, data_dir=tmp_path / "t") as router:
            fill(router, make_stream(450))
        doc = read_manifest(tmp_path / "t")
        c, entry = list(slice_entries(doc))[5]
        if damage == "no offset":
            del entry["offset"]
        elif damage == "no length":
            del entry["length"]
        else:
            entry["offset"] = None
        write_manifest(tmp_path / "t", doc)
        with pytest.raises(
            ValueError,
            match=rf"corrupt manifest \(window {c}, shard {entry['s']} "
            r"names no pack extent\)",
        ):
            TieredShardRouter.open(tmp_path / "t")


def manifest_from_scratch(router, packs: dict) -> bytes:
    """The manifest as one ``json.dumps`` of the whole document, built
    from the router's public state — what every seal used to write.
    ``packs`` maps each sealed window to the first window of the seal
    that froze it; a pack holds that seal's slice images in (window,
    shard) order, each as long as its encoding."""
    windows = []
    offsets = {}
    for c in range(router.sealed_window_count()):
        shards = []
        for s in range(router.n_shards):
            sketch = router.shard_window_sketch(s, c)
            if not sketch.n_rows:
                continue
            length = len(
                encode_segment(
                    shard=s, window_c=c, h=router.h,
                    stamp=router.shard_window_epoch(s, c),
                    batch=router.shard_window(s, c),
                    gids=router.shard_window_gids(s, c), sketch=sketch,
                )  # fmt: skip
            )
            offset = offsets.get(packs[c], 0)
            offsets[packs[c]] = offset + length
            shards.append(
                {
                    "s": s,
                    "rows": sketch.n_rows,
                    "stamp": router.shard_window_epoch(s, c),
                    "file": f"pack-w{packs[c]:08d}.seg",
                    "offset": offset,
                    "length": length,
                    "sketch": sketch.bounds(),
                }
            )
        first_t = float(router.shard_window(*_first_row_owner(router, c)).t[0])
        windows.append({"c": c, "first_t": first_t, "shards": shards})
    b = router.grid.bounds
    doc = {
        "format": 2,
        "h": router.h,
        "grid": {
            "min_x": b.min_x, "min_y": b.min_y, "max_x": b.max_x, "max_y": b.max_y,
            "nx": router.grid.nx, "ny": router.grid.ny,
        },
        "sealed_windows": router.sealed_window_count(),
        "windows": windows,
    }
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def ingest_recording_packs(router, batch, packs: dict) -> None:
    """Ingest ``batch``, recording in ``packs`` which seal froze each
    window it sealed (the pack is named by the seal's first window)."""
    first = router.sealed_window_count()
    router.ingest(batch)
    for c in range(first, router.sealed_window_count()):
        packs[c] = first


def _first_row_owner(router, c: int):
    """``(shard, window)`` of the slice holding window ``c``'s first row."""
    for s in range(router.n_shards):
        _stamp, sub, gids = router.snapshot_window(s, c)
        if len(gids) and gids[0] == c * router.h:
            return s, c
    raise AssertionError(f"window {c} has no first row")


class TestManifestFragments:
    """A seal encodes only the windows it sealed; the file must stay byte
    for byte the one-``json.dumps`` document."""

    def test_manifest_bytes_after_seals_reopen_and_compact(self, tmp_path):
        stream = make_stream(1000, seed=4)
        path = tmp_path / "tier" / "MANIFEST.json"
        grid = RegionGrid(BOUNDS, nx=2, ny=2)
        packs = {}
        with TieredShardRouter(grid, h=40, data_dir=tmp_path / "tier") as router:
            # no windows yet
            assert path.read_bytes() == manifest_from_scratch(router, packs)
            for lo in range(0, 600, 70):  # a seal of 1-2 windows per batch
                batch = stream.slice(lo, min(lo + 70, 600))
                ingest_recording_packs(router, batch, packs)
                assert path.read_bytes() == manifest_from_scratch(router, packs)
            assert router.sealed_window_count() == 15
            assert sorted(set(packs.values())) != sorted(packs)  # 2-window packs
        with TieredShardRouter.open(tmp_path / "tier") as again:
            assert path.read_bytes() == manifest_from_scratch(again, packs)
            # fragments rebuilt, then extended by one 10-window pack
            ingest_recording_packs(again, stream.slice(600, 1000), packs)
            assert again.sealed_window_count() == 25
            assert path.read_bytes() == manifest_from_scratch(again, packs)
            again.compact(verify=True)
            assert path.read_bytes() == manifest_from_scratch(again, packs)
        json.loads(path.read_text())


class TestSliceImages:
    """Every sealed slice is read as its extent of a pack, and the image
    there must be the slice the manifest says, in the seal layout."""

    def test_swapped_slice_entries_are_detected(self, tmp_path):
        """Two manifest entries of one shard pointing at each other's
        images pass every checksum; the image header names the slice, so
        neither fault-in nor ``compact(verify=True)`` may serve them."""
        stream = make_stream(600, seed=18)
        tiered, _ = make_pair(tmp_path, stream, h=100)
        tiered.close()
        data_dir = tmp_path / "tier"
        doc = read_manifest(data_dir)
        a, b = [entry for _, entry in slice_entries(doc) if entry["s"] == 1][:2]
        extent = ("file", "offset", "length")
        swapped = {k: a[k] for k in extent}
        a.update({k: b[k] for k in extent})
        b.update(swapped)
        write_manifest(data_dir, doc)
        with TieredShardRouter.open(data_dir) as again:
            engine = ShardedQueryEngine(again, radius_m=RADIUS_M)
            try:
                with pytest.raises(SegmentCorrupt, match="router expects"):
                    engine.continuous_query_batch(probe_queries(stream))
            finally:
                engine.close()
            with pytest.raises(SegmentCorrupt, match="router expects"):
                again.shard_window(1, 0)
            with pytest.raises(SegmentCorrupt, match="router expects"):
                again.compact(verify=True)
            again.shard_window(0, 0)  # untouched slices still read

    def test_segment_with_the_wrong_row_count_is_detected(self, tmp_path):
        """Right extent, right header key, fewer rows than the router's
        cuts say the slice has (a pack and manifest restored from an
        older archive)."""
        stream = make_stream(600, seed=19)
        tiered, _ = make_pair(tmp_path, stream, h=100)
        tiered.close()
        data_dir = tmp_path / "tier"
        c, entry = next(slice_entries(read_manifest(data_dir)))
        short = reencode(slice_image(data_dir, entry), rows=slice(1, None))
        repack(data_dir, {(entry["s"], c): short})
        with TieredShardRouter.open(data_dir) as again:
            with pytest.raises(SegmentCorrupt, match="router expects"):
                again.shard_window(entry["s"], c)
            # The images packed after the shortened one moved and read.
            for later_c, later in slice_entries(read_manifest(data_dir)):
                if (later_c, later["s"]) != (c, entry["s"]):
                    again.shard_window(later["s"], later_c)

    @pytest.mark.parametrize(
        "layout", [{"codec": 1}, {"pad": False}], ids=["zlib", "unpadded"]
    )
    def test_an_image_in_another_layout_is_refused(self, tmp_path, layout):
        """A pack and manifest restored together from an archive whose
        writer used zlib groups or an unpadded header: every checksum
        holds, and neither a fault-in nor ``compact(verify=True)`` reads
        the image."""
        stream = make_stream(600, seed=22)
        tiered, _ = make_pair(tmp_path, stream, h=100)
        tiered.close()
        data_dir = tmp_path / "tier"
        c, entry = list(slice_entries(read_manifest(data_dir)))[3]
        other = reencode(slice_image(data_dir, entry), **layout)
        repack(data_dir, {(entry["s"], c): other})
        message = "segment header is not the layout seals write"
        with TieredShardRouter.open(data_dir) as again:
            with pytest.raises(SegmentCorrupt, match=message):
                again.shard_window(entry["s"], c)
            with pytest.raises(SegmentCorrupt, match=message):
                again.compact(verify=True)
            for other_c, other_entry in slice_entries(read_manifest(data_dir)):
                if (other_c, other_entry["s"]) != (c, entry["s"]):
                    again.shard_window(other_entry["s"], other_c)


class TestPackLayout:
    """One pack file per seal: three atomic writes however many slices
    it freezes, each slice read back as exactly its own bytes."""

    def test_a_seal_is_three_atomic_writes(self, tmp_path, monkeypatch):
        renamed = []
        real_replace = fsio.replace

        def replace(src, dst):
            renamed.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(fsio, "replace", replace)
        stream = make_stream(1000, seed=20)
        with TieredShardRouter(
            RegionGrid(BOUNDS, nx=2, ny=2), h=50, data_dir=tmp_path / "t"
        ) as tiered:
            renamed.clear()
            tiered.ingest(stream.slice(0, 40))  # seals nothing
            assert renamed == []
            tiered.ingest(stream.slice(40, 390))  # seals 7 windows x 4 shards
            stats = tiered.tier_stats()
            assert (stats["packs_written"], stats["segments_written"]) == (1, 28)
            assert renamed == [
                "pack-w00000000.seg", "MANIFEST.json", "wal.log",
            ]  # fmt: skip
            renamed.clear()
            tiered.ingest(stream.slice(390, 460))  # seals window 7
            assert renamed == [
                "pack-w00000007.seg", "MANIFEST.json", "wal.log",
            ]  # fmt: skip
        names = sorted(p.name for p in (tmp_path / "t" / "segments").iterdir())
        assert names == ["pack-w00000000.seg", "pack-w00000007.seg"]

    def test_a_fault_in_reads_only_its_extent(self, tmp_path):
        """A pack cut short fails exactly the slices whose bytes it lost;
        every slice before the cut still faults in."""
        stream = make_stream(600, seed=21)
        tiered, plain = make_pair(tmp_path, stream, h=100, pieces=1)
        tiered.close()
        data_dir = tmp_path / "tier"
        entries = list(slice_entries(read_manifest(data_dir)))
        assert {entry["file"] for _, entry in entries} == {"pack-w00000000.seg"}
        pack = data_dir / "segments" / "pack-w00000000.seg"
        pack.write_bytes(pack.read_bytes()[:-8])
        with TieredShardRouter.open(data_dir) as again:
            *intact, (c, last) = entries
            for k, entry in intact:
                got = again.shard_window_gids(entry["s"], k)
                assert got.tobytes() == plain.shard_window_gids(entry["s"], k).tobytes()
            with pytest.raises(SegmentCorrupt, match="pack ends 8 bytes short"):
                again.shard_window(last["s"], c)


class TestBoundedResidency:
    """Satellite: long ingest under a small cap — memory stays bounded and
    answers are byte-identical to an uncapped, all-resident engine."""

    def test_resident_cap_holds_throughout_ingest_and_queries(self, tmp_path):
        cap = 4
        stream = make_stream(6000, seed=7)
        grid = RegionGrid(BOUNDS, nx=2, ny=2)
        tiered = TieredShardRouter(
            grid, h=200, data_dir=tmp_path / "tier", memory_windows=cap
        )
        with tiered:
            step = 500
            for start in range(0, len(stream), step):
                tiered.ingest(stream.slice(start, start + step))
                assert tiered.resident_window_count() <= cap
            assert tiered.sealed_window_count() == 30
            stats = tiered.tier_stats()
            assert stats["peak_resident"] <= cap
            assert stats["evictions"] > 0
            assert stats["segments_written"] > 30  # ~one per (shard, window)

            plain = ShardRouter(grid, h=200)
            for start in range(0, len(stream), step):
                plain.ingest(stream.slice(start, start + step))

            hot = ShardedQueryEngine(tiered, radius_m=RADIUS_M)
            cold = ShardedQueryEngine(plain, radius_m=RADIUS_M)
            try:
                queries = probe_queries(stream, n=120)
                assert_same_answers(
                    hot.continuous_query_batch(queries),
                    cold.continuous_query_batch(queries),
                )
                assert tiered.resident_window_count() <= cap
                t_probe = float(stream.t[len(stream) // 3])
                grid_hot = hot.heatmap_grid(t_probe, BOUNDS, nx=8, ny=6)
                grid_cold = cold.heatmap_grid(t_probe, BOUNDS, nx=8, ny=6)
                assert grid_hot.tobytes() == grid_cold.tobytes()
                p_hot = hot.point_query(t_probe, 3000.0, 2000.0)
                p_cold = cold.point_query(t_probe, 3000.0, 2000.0)
                assert p_hot.value == p_cold.value
                assert p_hot.support == p_cold.support
                assert tiered.resident_window_count() <= cap
                assert tiered.tier_stats()["peak_resident"] <= cap
                assert tiered.faults > 0  # cold windows really were faulted in
            finally:
                hot.close()
                cold.close()

    @pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2)])
    def test_hot_equals_cold_after_recovery(self, tmp_path, nx, ny):
        """The full oracle chain: capped + recovered == plain in-memory."""
        stream = make_stream(2400, seed=8)
        tiered, plain = make_pair(
            tmp_path, stream, nx=nx, ny=ny, h=160, cap=2, pieces=6
        )
        tiered.close()
        reopened = TieredShardRouter.open(tmp_path / "tier", memory_windows=2)
        hot = ShardedQueryEngine(reopened, radius_m=RADIUS_M)
        cold = ShardedQueryEngine(plain, radius_m=RADIUS_M)
        try:
            queries = probe_queries(stream, n=90, seed=11)
            assert_same_answers(
                hot.continuous_query_batch(queries),
                cold.continuous_query_batch(queries),
            )
            assert reopened.resident_window_count() <= 2
        finally:
            hot.close()
            cold.close()
            reopened.close()

    def test_process_front_end_falls_back_and_matches(self, tmp_path):
        """`prefix_exportable = False` routes the engine's pool to its
        counted in-process fallback — answers must still be
        byte-identical, and no worker starts."""
        stream = make_stream(1500, seed=9)
        tiered, plain = make_pair(tmp_path, stream, h=150, cap=3)
        hot = ShardedQueryEngine(tiered, radius_m=RADIUS_M, processes=2)
        cold = ShardedQueryEngine(plain, radius_m=RADIUS_M)
        try:
            queries = probe_queries(stream, n=40, seed=12)
            assert_same_answers(
                hot.continuous_query_batch(queries),
                cold.continuous_query_batch(queries),
            )
            assert hot.metrics["pool_fallbacks"].as_dict() == {
                "router does not export contiguous shard prefixes": 1
            }
            assert hot.pool._workers == [None, None]
        finally:
            hot.close()
            cold.close()
            tiered.close()

    def test_pruning_reads_sketches_without_faulting(self, tmp_path):
        """Scatter pruning consults sealed sketches from resident metadata:
        probing every sealed sketch via the binding must not fault a
        single segment in."""
        stream = make_stream(2000, seed=10)
        tiered, _ = make_pair(tmp_path, stream, h=100, cap=1)
        with tiered:
            # Drain the resident set down to the cap with a full sweep.
            for c in range(tiered.sealed_window_count()):
                for s in range(tiered.n_shards):
                    tiered.shard_window(s, c)
            faults_before = tiered.faults
            binding = RouterBinding(tiered)
            for c in range(tiered.sealed_window_count()):
                for s in range(tiered.n_shards):
                    sketch = binding.sketch_for(s, c)
                    assert sketch == tiered.shard_window_sketch(s, c)
            assert tiered.faults == faults_before


class TestMaintenance:
    def test_compact_removes_orphans_and_temp_files(self, tmp_path):
        stream = make_stream(600, seed=13)
        tiered, _ = make_pair(tmp_path, stream, h=100)
        with tiered:
            seg_dir = tmp_path / "tier" / "segments"
            live = {p.name for p in seg_dir.iterdir()}
            assert live and all(name.startswith("pack-") for name in live)
            (seg_dir / "pack-w00000099.seg").write_bytes(b"orphan pack")
            (seg_dir / "seg-s0099-w00000099.seg").write_bytes(b"orphan slice")
            (seg_dir / "leftover.tmp").write_bytes(b"tmp")
            report = tiered.compact(verify=True)
            assert report["orphans_removed"] == 2
            assert report["tmp_removed"] == 1
            entries = list(slice_entries(read_manifest(tmp_path / "tier")))
            assert report["segments_verified"] == len(entries) > len(live)
            assert {p.name for p in seg_dir.iterdir()} == live

    def test_compact_verify_detects_segment_corruption(self, tmp_path):
        stream = make_stream(600, seed=14)
        tiered, _ = make_pair(tmp_path, stream, h=100)
        with tiered:
            seg_dir = tmp_path / "tier" / "segments"
            victim = sorted(seg_dir.glob("pack-*.seg"))[0]
            data = bytearray(victim.read_bytes())
            data[-1] ^= 0xFF  # the pack's last image's last payload byte
            victim.write_bytes(bytes(data))
            with pytest.raises(SegmentCorrupt, match="failed its checksum"):
                tiered.compact(verify=True)

    def test_tier_stats_shape(self, tmp_path):
        stream = make_stream(500, seed=15)
        tiered, _ = make_pair(tmp_path, stream, h=100, cap=2)
        with tiered:
            stats = tiered.tier_stats()
            assert set(stats) == {
                "sealed_windows",
                "resident_windows",
                "peak_resident",
                "memory_windows",
                "faults",
                "evictions",
                "segments_written",
                "packs_written",
                "wal_appends",
                "wal_checkpoints",
            }
            assert stats["sealed_windows"] == 5
            assert stats["memory_windows"] == 2
            assert stats["packs_written"] == 5  # one 1-window seal per batch
            entries = list(slice_entries(read_manifest(tmp_path / "tier")))
            assert stats["segments_written"] == len(entries)
