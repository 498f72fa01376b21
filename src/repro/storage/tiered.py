"""Durable tiered shard router: segments + WAL + bounded resident set.

:class:`TieredShardRouter` *is* a
:class:`~repro.storage.shards.ShardRouter` — it adds no protocol method
of its own, the query pipeline binds it through the identical
:class:`~repro.query.pipeline.binding.RouterBinding` — whose rows live
in a :class:`SegmentWindowStore` instead of RAM:

* **Hot tail** — rows of still-open global windows live in memory only
  (plus the WAL for crash safety), exactly as routed, in one shard
  column per shard (the resident store's type), re-seeded with the
  kept rows at every seal.
* **Sealed packs** — the moment global windows seal, each shard's
  slice of each is frozen into an immutable, checksummed segment image
  (:mod:`repro.storage.segments`), all of one seal's images go into one
  pack file, and the manifest is atomically updated.  Sealed slices
  then live in a bounded LRU of resident windows; cold ones are evicted
  and transparently faulted back in — one ``os.pread`` of exactly the
  slice's image — when a plan's ``slice_for`` needs their rows.
* **Always-resident metadata** — per-(shard, window) stamps, row counts
  and zone-map sketches, the global window cuts, and the first-tuple
  time per window are the *router's* state, not the store's.
  Everything a plan consults *before* touching rows —
  ``windows_for_times``, geometry pruning, sketch pruning, pruned-op
  records — reads only this metadata, so pruning never faults a window
  in just to skip it.

**The tier is invisible to plans.**  Given the same ingest sequence, a
tiered router and a plain :class:`ShardRouter` resolve every
``(shard, window)`` to bit-identical rows, gids and sketches — routing,
cuts, epochs and sketches are computed by the one router, and segment
round-trips preserve the float64 columns exactly.

Durability protocol (see ``docs/architecture.md``):

1. ``ingest`` hands the accepted *global* batch to :meth:`SegmentWindowStore.log`,
   which appends it to the WAL and fsyncs **before** any in-memory state
   changes — an acknowledged batch survives a crash.
2. When windows seal, the images of every ``(shard, window)`` slice
   they freeze are concatenated in (window, shard) order into one pack,
   ``segments/pack-w<first window:08d>.seg``, committed by one atomic
   write; **then** the manifest, which records each slice's ``file``,
   ``offset`` and ``length``, is atomically replaced; **then** the WAL
   is checkpointed down to the unsealed tail.  Three atomic writes per
   seal, however many slices it freezes.  A crash between any two steps
   loses nothing: a pack not yet in the manifest is ignored on recovery
   and re-written under the same name from the WAL, and WAL records
   overlapping sealed rows are skipped by their absolute start row.  A
   segment image is the unit of checking; a pack the unit of
   durability.
3. Recovery (construction over an existing directory) adopts sealed
   metadata from the manifest *without reading any segment payload*,
   replays the WAL tail through the router's one ingest body, and
   completes any seal the crash interrupted.  A manifest in any format
   but 2, or an entry without its pack extent, is refused right there:
   every sealed slice is read as its extent of a pack, in the one image
   layout :mod:`repro.storage.segments` reads.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.storage import fsio
from repro.storage.segments import decode_packed_slice, encode_segment
from repro.storage.shards import ShardRouter, _ShardColumn
from repro.storage.sketch import WindowSketch
from repro.storage.wal import WriteAheadLog, replay_wal

_MANIFEST = "MANIFEST.json"
_WAL = "wal.log"
_SEGMENT_DIR = "segments"
#: The one manifest format: each slice's entry names its pack ``file``
#: and the ``offset`` and ``length`` of its image there.
_MANIFEST_FORMAT = 2
#: Pack files a store keeps open for fault-ins, the most recently read
#: last: a route faults in a run of windows, which one seal packed
#: together, so a few descriptors save most opens.
_OPEN_PACKS = 8


def _pack_filename(first_window: int) -> str:
    return f"pack-w{first_window:08d}.seg"


def _grid_doc(grid: RegionGrid) -> dict:
    """The manifest's record of the creation-time layout."""
    b = grid.bounds
    return {
        "min_x": b.min_x,
        "min_y": b.min_y,
        "max_x": b.max_x,
        "max_y": b.max_y,
        "nx": grid.nx,
        "ny": grid.ny,
    }


def _read_manifest(path: Path) -> dict:
    """The manifest document, refused unless it is in the one format."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt manifest ({exc})") from None
    if doc.get("format") != _MANIFEST_FORMAT:
        raise ValueError(
            f"{path}: unsupported manifest format {doc.get('format')!r} "
            f"(this reader opens format {_MANIFEST_FORMAT} only)"
        )
    return doc


#: Where a sealed slice's image lives: ``(file, offset, length)``.
_Extent = Tuple[str, int, int]


class SegmentWindowStore:
    """Window store over a data directory: open tail + WAL, sealed
    windows in pack files behind a bounded LRU, one manifest.

    Same narrow surface as
    :class:`~repro.storage.shards.ResidentWindowStore` (``log`` /
    ``append`` / ``window`` / ``seal`` / ``column``), called only under
    the router's lock — fault-in and LRU mutation happen inside
    ``window`` — and holding no lock of its own.  The manifest persists
    the *router's* metadata of sealed windows, so ``seal`` reads it off
    the router it is handed; the store never mutates the router.

    ``memory_windows`` bounds the number of *sealed* ``(shard, window)``
    slices resident at once (``None`` = unbounded: the tier is then a
    write-through archive).  The open tail is always resident — it is
    the working set ingest appends to.  Request-scoped bindings may pin
    slices past an eviction; the cap bounds the store's cache, and
    evicted arrays die with the binding that pinned them.
    """

    #: The shared-memory export path needs a contiguous in-memory prefix
    #: per shard, which a tiered store deliberately does not keep.
    prefix_exportable = False

    def __init__(
        self,
        grid: RegionGrid,
        h: int,
        data_dir: Path,
        memory_windows: Optional[int],
        wal_sync: bool,
    ) -> None:
        self.grid = grid
        self.h = h
        self.data_dir = data_dir
        self.memory_windows = memory_windows
        self._wal_sync = wal_sync
        #: ``str`` prefix of every segment path: a fault-in builds no ``Path``.
        self._segment_prefix = os.path.join(data_dir, _SEGMENT_DIR, "")
        os.makedirs(self._segment_prefix, exist_ok=True)
        n = grid.n_regions
        self.sealed_windows = 0  # windows durably sealed (packs + manifest)
        #: Open-tail rows per shard, re-seeded with the kept rows at
        #: every seal.
        self._tails = [_ShardColumn() for _ in range(n)]
        #: Sealed rows per shard (tail base: shard-local rows below it are
        #: in segments, at or above it in the tail).
        self._tail_base = [0] * n
        #: Resident sealed slices, LRU order: (shard, c) -> (batch, gids).
        self._resident: "OrderedDict[Tuple[int, int], Tuple[TupleBatch, np.ndarray]]" = OrderedDict()
        #: (shard, c) -> (file, offset, length) of every sealed slice with
        #: rows.
        self._slices: Dict[Tuple[int, int], _Extent] = {}
        #: The manifest's encoded entry of each sealed window, in window
        #: order.  A sealed window's rows, stamps, sketches and extents
        #: never change on this tier, so its entry is encoded once
        #: (at seal, or from the parsed manifest at recovery) and every
        #: later manifest re-uses the bytes.
        self._manifest_windows: List[str] = []
        #: Read-only descriptors of recently read packs, LRU order (at
        #: most :data:`_OPEN_PACKS`; closed by ``close`` and ``compact``).
        #: Packs are immutable once committed, so a descriptor reads
        #: what a fresh open would.
        self._packs: "OrderedDict[str, int]" = OrderedDict()
        # Tier observability (all monotone counters except resident/peak).
        self.faults = 0
        self.evictions = 0
        self.segments_written = 0
        self.packs_written = 0
        self.peak_resident = 0
        self._wal: Optional[WriteAheadLog] = None

    # -- recovery ----------------------------------------------------------

    def recover(self) -> Optional[List[dict]]:
        """Adopt the directory's manifest (no segment payload is read)
        and open the WAL.  Returns the manifest's sealed-window entries
        in window order for the router to restore its metadata from, or
        ``None`` for a directory that has no manifest yet."""
        path = self.data_dir / _MANIFEST
        windows = None
        if path.exists():
            doc = _read_manifest(path)
            if int(doc["h"]) != self.h:
                raise ValueError(
                    f"data directory was written with h={doc['h']}, "
                    f"router configured with h={self.h}"
                )
            if doc["grid"] != _grid_doc(self.grid):
                raise ValueError(
                    "data directory was written with a different region grid; "
                    "reopen with TieredShardRouter.open() or the original grid"
                )
            sealed = int(doc["sealed_windows"])
            windows = sorted(doc["windows"], key=lambda w: int(w["c"]))
            if [int(w["c"]) for w in windows] != list(range(sealed)):
                raise ValueError(
                    f"{path}: manifest window list is not "
                    f"the contiguous range 0..{sealed - 1}"
                )
            for entry in windows:
                for shard_entry in entry["shards"]:
                    s, c = int(shard_entry["s"]), int(entry["c"])
                    try:
                        self._slices[(s, c)] = (
                            shard_entry["file"],
                            int(shard_entry["offset"]),
                            int(shard_entry["length"]),
                        )
                    except (KeyError, TypeError):
                        raise ValueError(
                            f"{path}: corrupt manifest (window {c}, shard {s} "
                            "names no pack extent)"
                        ) from None
                    self._tail_base[s] += int(shard_entry["rows"])
            self._manifest_windows = [
                json.dumps(entry, sort_keys=True) for entry in windows
            ]
            self.sealed_windows = sealed
        self._wal = WriteAheadLog(self.data_dir / _WAL, sync=self._wal_sync)
        return windows

    def wal_records(self):
        """The ``(start_row, batch)`` records of the WAL's valid prefix."""
        return replay_wal(self.data_dir / _WAL).records

    def close(self) -> None:
        self._close_packs()
        self._wal.close()

    # -- the window-store surface ------------------------------------------

    def log(self, start_row: int, batch: TupleBatch) -> None:
        """Durably append the global batch to the WAL (fsynced on return)."""
        self._wal.append(start_row, batch)

    def append(self, s: int, sub: TupleBatch, gids: np.ndarray) -> None:
        self._tails[s].append(sub, gids)

    def window(self, s: int, c: int, start: int, stop: int):
        """``(rows, gids)`` of shard-local rows ``[start, stop)`` = the
        shard's slice of window ``c``: from the resident set (faulting
        the slice in on a miss) when sealed, else from the open tail."""
        if c < self.sealed_windows:
            return self._sealed_slice(s, c, stop - start)
        return self._tail_slice(s, start, stop)

    def column(self, s: int):
        """A durable layout cannot be re-cut: sealed packs, the WAL and
        the manifest all encode the creation-time layout, and
        re-cutting them in place cannot be made crash-safe with the
        current segment format (see ``storage/README.md``) — so there is
        no whole column to hand a split or merge."""
        raise NotImplementedError(
            "rebalancing a durable tier is not supported; "
            "re-ingest into a freshly laid-out ShardRouter instead"
        )

    # -- sealing -----------------------------------------------------------

    def seal(self, router: ShardRouter) -> None:
        """Freeze every complete-but-unsealed window to the durable tier.

        Order is what makes this crash-safe: one pack holding every slice
        the seal freezes (one atomic write), then one atomic manifest
        replace that commits it, then the WAL checkpoint.  Pack content
        is a pure function of the stream prefix and its name of the
        first window it holds, so re-running an interrupted seal after
        recovery rewrites the same file.
        """
        target = router.global_count() // self.h
        first = self.sealed_windows
        if target <= first:
            return
        n_shards = router.n_shards
        name = _pack_filename(first)
        images: List[bytes] = []
        extents: Dict[Tuple[int, int], _Extent] = {}
        offset = 0
        sealed_slices: List[Tuple[int, int, TupleBatch, np.ndarray]] = []
        for c in range(first, target):
            for s in range(n_shards):
                sub, sgids = self._tail_slice(s, *router._window_bounds(s, c))
                if not len(sub):
                    continue
                image = encode_segment(
                    shard=s,
                    window_c=c,
                    h=self.h,
                    stamp=router.shard_window_epoch(s, c),
                    batch=sub,
                    gids=sgids,
                    sketch=router.shard_window_sketch(s, c),
                )
                images.append(image)
                extents[(s, c)] = (name, offset, len(image))
                offset += len(image)
                # Own the rows (a copy) so the resident entry does not
                # pin the whole superseded tail buffer alive.
                sealed_slices.append(
                    (s, c, TupleBatch(*(col.copy() for col in (sub.t, sub.x, sub.y, sub.s))), sgids.copy())
                )
        fsio.atomic_write_bytes(self._segment_prefix + name, b"".join(images))
        self.packs_written += 1
        self.segments_written += len(images)
        self._slices.update(extents)
        self.sealed_windows = target
        self.write_manifest(router)
        # Re-seed each shard's tail with the rows the seal keeps.
        for s in range(n_shards):
            base = router._window_bounds(s, target - 1)[1]
            tail_batch, tail_gids = self._tails[s].rows()
            keep = base - self._tail_base[s]
            tail = _ShardColumn()
            if keep < len(tail_batch):
                tail.append(tail_batch.slice(keep, len(tail_batch)), tail_gids[keep:])
            self._tails[s] = tail
            self._tail_base[s] = base
        # Freshly sealed slices enter the resident set (LRU end): the
        # just-sealed window is the likeliest to be queried next.
        for s, c, sub, sgids in sealed_slices:
            self._resident_insert((s, c), (sub, sgids))
        # Checkpoint the WAL down to the unsealed tail, in global order.
        self._wal.checkpoint(target * self.h, self._global_tail())

    def _global_tail(self) -> TupleBatch:
        """The unsealed rows in global stream order (gid-merged)."""
        parts = [tail.rows() for tail in self._tails]
        batches = [p[0] for p in parts if len(p[0])]
        gid_parts = [p[1] for p in parts if len(p[1])]
        if not batches:
            return TupleBatch.empty()
        gids = np.concatenate(gid_parts)
        order = np.argsort(gids, kind="stable")
        merged = batches[0]
        for extra in batches[1:]:
            merged = merged.concat(extra)
        return merged.take(order)

    def write_manifest(self, router: ShardRouter) -> None:
        """Atomically replace the manifest with the current sealed state.

        The file is ``json.dumps(doc, sort_keys=True) + "\n"`` of the
        whole document, assembled from the windows' stored encodings
        (``"windows"`` sorts last): only windows sealed since the last
        write are encoded here, so a seal costs O(new windows) of
        encoding under the router lock, not O(stream length).
        """
        for c in range(len(self._manifest_windows), self.sealed_windows):
            shards = []
            for s in range(router.n_shards):
                extent = self._slices.get((s, c))
                if extent is None:
                    continue
                name, offset, length = extent
                sketch = router.shard_window_sketch(s, c)
                shards.append(
                    {
                        "s": s,
                        "rows": sketch.n_rows,
                        "stamp": router.shard_window_epoch(s, c),
                        "file": name,
                        "offset": offset,
                        "length": length,
                        "sketch": sketch.bounds(),
                    }
                )
            entry = {"c": c, "first_t": float(router._first_ts[c]), "shards": shards}
            self._manifest_windows.append(json.dumps(entry, sort_keys=True))
        head = {
            "format": _MANIFEST_FORMAT,
            "h": self.h,
            "grid": _grid_doc(self.grid),
            "sealed_windows": self.sealed_windows,
        }
        text = (
            json.dumps(head, sort_keys=True)[:-1]
            + ', "windows": ['
            + ", ".join(self._manifest_windows)
            + "]}\n"
        )
        fsio.atomic_write_bytes(self.data_dir / _MANIFEST, text.encode("utf-8"))

    # -- resident-set management -------------------------------------------

    def _resident_insert(
        self, key: Tuple[int, int], value: Tuple[TupleBatch, np.ndarray]
    ) -> None:
        resident = self._resident
        if key in resident:  # a new key goes in last anyway
            resident.move_to_end(key)
        resident[key] = value
        if self.memory_windows is not None:
            while len(resident) > self.memory_windows:
                resident.popitem(last=False)
                self.evictions += 1
        if len(resident) > self.peak_resident:
            self.peak_resident = len(resident)

    def _pack_fd(self, name: str) -> int:
        """An open read-only descriptor of pack ``name``."""
        packs = self._packs
        fd = packs.get(name)
        if fd is None:
            fd = packs[name] = os.open(self._segment_prefix + name, os.O_RDONLY)
            if len(packs) > _OPEN_PACKS:
                os.close(packs.popitem(last=False)[1])
        else:
            packs.move_to_end(name)
        return fd

    def _close_packs(self) -> None:
        while self._packs:
            os.close(self._packs.popitem()[1])

    def _read_slice(
        self, s: int, c: int, n_rows: int
    ) -> Tuple[TupleBatch, np.ndarray]:
        """Read a sealed slice's ``(batch, gids)`` and require its
        header to name exactly that ``(shard, window, rows)``: an image
        swapped or restored under another slice's extent passes every
        checksum.  One ``os.pread`` of the slice's pack extent, decoded
        straight into the pair
        (:func:`~repro.storage.segments.decode_packed_slice`)."""
        name, offset, length = self._slices[(s, c)]
        data = os.pread(self._pack_fd(name), length, offset)
        return decode_packed_slice(data, (name, offset, length), (s, c, n_rows))

    def _sealed_slice(
        self, s: int, c: int, n_rows: int
    ) -> Tuple[TupleBatch, np.ndarray]:
        """The (batch, gids) of a sealed slice, faulting it in on a miss."""
        key = (s, c)
        resident = self._resident
        cached = resident.get(key)
        if cached is not None:
            resident.move_to_end(key)
            return cached
        if key not in self._slices:  # the shard owned no rows of this window
            return TupleBatch.empty(), np.empty(0, dtype=np.int64)
        value = self._read_slice(s, c, n_rows)
        self.faults += 1
        self._resident_insert(key, value)
        return value

    def _tail_slice(
        self, s: int, start: int, stop: int
    ) -> Tuple[TupleBatch, np.ndarray]:
        """Shard-local rows ``[start, stop)`` of shard ``s``'s open tail."""
        base = self._tail_base[s]
        batch, gids = self._tails[s].rows()
        return batch.slice(start - base, stop - base), gids[start - base : stop - base]

    # -- maintenance -------------------------------------------------------

    def tier_stats(self) -> Dict[str, int]:
        return {
            "sealed_windows": self.sealed_windows,
            "resident_windows": len(self._resident),
            "peak_resident": self.peak_resident,
            "memory_windows": self.memory_windows or 0,
            "faults": self.faults,
            "evictions": self.evictions,
            "segments_written": self.segments_written,
            "packs_written": self.packs_written,
            "wal_appends": self._wal.appends,
            "wal_checkpoints": self._wal.checkpoints,
        }

    def compact(self, router: ShardRouter, verify: bool) -> Dict[str, int]:
        removed = tmp_removed = verified = 0
        live = {name for name, _, _ in self._slices.values()}
        for name in sorted(os.listdir(self._segment_prefix)):
            if name.endswith(".tmp"):
                os.unlink(self._segment_prefix + name)
                tmp_removed += 1
            elif name.endswith(".seg") and name not in live:
                os.unlink(self._segment_prefix + name)
                removed += 1
        if verify:
            for s, c in sorted(self._slices):
                start, stop = router._window_bounds(s, c)
                self._read_slice(s, c, stop - start)
                verified += 1
        self._wal.checkpoint(self.sealed_windows * self.h, self._global_tail())
        self._close_packs()  # maintenance leaves no pack open
        return {
            "orphans_removed": removed,
            "tmp_removed": tmp_removed,
            "segments_verified": verified,
        }


class TieredShardRouter(ShardRouter):
    """The shard router over a durable segment + WAL tier.

    Everything on the query path is :class:`ShardRouter`'s own code
    (``RouterBinding``/``ShardedQueryEngine`` work unchanged); this class
    only opens the :class:`SegmentWindowStore`, recovers the router's
    metadata from it, and surfaces the tier's maintenance entry points.
    The process-parallel executor sees ``prefix_exportable = False`` and
    falls back to in-process execution, which is byte-identical.

    ``memory_windows`` bounds the number of *sealed* ``(shard, window)``
    slices resident at once (``None`` = unbounded); ``wal_sync=False``
    drops the per-append fsync (benchmark use only).
    """

    def __init__(
        self,
        grid: RegionGrid,
        h: int = 240,
        *,
        data_dir: Union[str, Path],
        memory_windows: Optional[int] = None,
        wal_sync: bool = True,
    ) -> None:
        if memory_windows is not None and memory_windows < 1:
            raise ValueError("memory_windows must be at least 1 (or None)")
        self.data_dir = Path(data_dir)
        self.memory_windows = memory_windows
        self._wal_sync = wal_sync
        super().__init__(grid, h)
        sealed = self._store.recover()
        if sealed is not None:
            self._adopt_sealed(sealed)
        self._replay_wal()
        self._store.seal(self)
        if sealed is None:
            # Establish the manifest at creation so the directory is
            # self-describing from the first byte (`open` needs no args).
            self._store.write_manifest(self)

    def _open_store(self) -> SegmentWindowStore:
        return SegmentWindowStore(
            self.grid, self.h, self.data_dir, self.memory_windows, self._wal_sync
        )

    # -- construction over an existing directory ---------------------------

    @classmethod
    def open(
        cls,
        data_dir: Union[str, Path],
        *,
        memory_windows: Optional[int] = None,
        wal_sync: bool = True,
    ) -> "TieredShardRouter":
        """Reopen a data directory, reconstructing grid and ``h`` from
        its manifest (and recovering WAL/segment state on the way)."""
        manifest_path = Path(data_dir) / _MANIFEST
        if not manifest_path.exists():
            raise ValueError(
                f"{manifest_path}: no manifest — not a tiered data directory"
            )
        doc = _read_manifest(manifest_path)
        g = doc["grid"]
        grid = RegionGrid(
            BoundingBox(g["min_x"], g["min_y"], g["max_x"], g["max_y"]),
            nx=int(g["nx"]),
            ny=int(g["ny"]),
        )
        return cls(
            grid,
            h=int(doc["h"]),
            data_dir=data_dir,
            memory_windows=memory_windows,
            wal_sync=wal_sync,
        )

    def _adopt_sealed(self, windows: List[dict]) -> None:
        """Restore the always-resident metadata of the sealed windows
        from their manifest entries."""
        self._first_ts = np.array(
            [entry["first_t"] for entry in windows], dtype=np.float64
        )
        for c, entry in enumerate(windows):
            rows_by_shard = [0] * self.n_shards
            for shard_entry in entry["shards"]:
                s = int(shard_entry["s"])
                rows = int(shard_entry["rows"])
                rows_by_shard[s] = rows
                self._window_epochs[s][c] = int(shard_entry["stamp"])
                self._sketches[s][c] = WindowSketch.restored(
                    rows, shard_entry["sketch"]
                )
            for s in range(self.n_shards):
                self._cuts[s].append(self._cuts[s][-1] + rows_by_shard[s])
        self._global_rows = len(windows) * self.h
        for s in range(self.n_shards):
            self._shard_rows[s] = self._cuts[s][-1]
        stamps = [
            stamp for per in self._window_epochs for stamp in per.values()
        ]
        self._epoch = max(stamps, default=0)
        if windows:
            # The stream is time-sorted, so its last sealed window holds
            # the latest sealed timestamp (the WAL replay then advances
            # the floor over the tail rows).
            last = len(windows) - 1
            self._last_t = max(
                per[last].max_t for per in self._sketches if last in per
            )

    def _replay_wal(self) -> None:
        """Replay the WAL tail through the router's one ingest body.

        Records are skipped up to the sealed boundary (a crash between
        the manifest update and the WAL checkpoint leaves covered rows
        in the log); the remainder re-ingests in order, deterministically
        rebuilding tail rows, cuts, gids, epochs and sketches.
        """
        for start_row, batch in self._store.wal_records():
            expected = self._global_rows
            if start_row > expected:
                break  # gap: nothing after it can be trusted
            skip = expected - start_row
            if skip >= len(batch):
                continue  # fully covered by sealed segments
            self._apply(batch.slice(skip, len(batch)))

    # -- the tier's own surface --------------------------------------------

    @property
    def faults(self) -> int:
        """Slice fault-ins so far (monotone)."""
        return self._store.faults

    def sealed_window_count(self) -> int:
        """Windows durably frozen into packs."""
        return self._store.sealed_windows

    def resident_window_count(self) -> int:
        """Sealed ``(shard, window)`` slices currently resident."""
        return self._store.tier_stats()["resident_windows"]

    def tier_stats(self) -> Dict[str, int]:
        """Observability counters for tests, benchmarks and the CLI."""
        return self._store.tier_stats()

    def compact(self, verify: bool = False) -> Dict[str, int]:
        """Tidy the data directory: checkpoint the WAL, drop ``.seg``
        files no manifest entry references (a pack left behind, e.g.
        restored from elsewhere), remove stray temp files.
        ``verify=True`` additionally re-reads every live slice, checking
        all group checksums and that each image holds the slice its
        manifest entry says.

        Returns counters: ``{"orphans_removed", "tmp_removed",
        "segments_verified"}``.  Raises
        :class:`~repro.storage.segments.SegmentCorrupt` if verification
        fails.
        """
        with self._lock:
            return self._store.compact(self, verify)

    def close(self) -> None:
        self._store.close()

    def __enter__(self) -> "TieredShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
