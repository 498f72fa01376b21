"""Crash-injection matrix for the durable tier.

The harness (:mod:`tests.faultfs`) first runs the ingest workload once to
count its durability boundaries — every fsync and atomic rename crossed
by WAL appends, pack writes, manifest replaces and WAL checkpoints —
then replays the workload once per ``(boundary, mode)`` cell, killing
the writer at exactly that point:

* ``before`` — the syscall never executed (its write is not durable);
* ``after``  — the syscall executed, nothing later ran;
* ``torn``   — the preceding buffered write is additionally cut in half
  (the torn-sector crash WAL replay must detect).

After each simulated kill the directory is reopened cold and checked
against the *replay oracle*: recovery must yield a byte-for-byte batch
prefix of the reference stream, at least as long as everything the
writer acknowledged, and bit-identical — rows, gids, cuts, sketches and
query answers — to a shadow in-memory router fed exactly that prefix.

Two workloads run the matrix over the same 108-row stream: four 27-row
batches that each seal one window (a two-slice pack per seal), and two
54-row batches that each seal two windows at once (a four-slice pack).
"""

import numpy as np
import pytest

from faultfs import FaultInjector, SimulatedCrash, count_boundaries
from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.base import QueryBatch
from repro.query.sharded import ShardedQueryEngine
from repro.storage import fsio
from repro.storage.shards import ShardRouter
from repro.storage.tiered import TieredShardRouter

#: Every test here opens durable routers: none may leak a descriptor or a thread.
pytestmark = pytest.mark.usefixtures("leak_check")

BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
H = 25
N_BATCHES = 4
BATCH_ROWS = 27  # 4 * 27 = 108 rows = 4 sealed windows + an 8-row tail
#: The multi-slice workload: each 54-row batch seals 2 windows x 2 shards.
PACK_BATCH_ROWS = 54


def make_stream(n: int, seed: int = 0) -> TupleBatch:
    rng = np.random.default_rng(seed)
    return TupleBatch(
        np.cumsum(rng.uniform(1.0, 30.0, n)),
        rng.uniform(0.0, 6000.0, n),
        rng.uniform(0.0, 4000.0, n),
        rng.uniform(350.0, 600.0, n),
    )


STREAM = make_stream(N_BATCHES * BATCH_ROWS)
GRID = RegionGrid(BOUNDS, nx=2, ny=1)


def run_workload(data_dir, acked, batch_rows: int = BATCH_ROWS) -> None:
    """Create the store, then ingest the stream batch by batch, recording
    in ``acked`` how many rows each returned ``ingest`` made durable."""
    with TieredShardRouter(GRID, h=H, data_dir=data_dir) as router:
        for lo in range(0, len(STREAM), batch_rows):
            router.ingest(STREAM.slice(lo, lo + batch_rows))
            acked[0] = lo + batch_rows


def shadow_router(n_rows: int) -> ShardRouter:
    """The oracle: a plain in-memory router over the recovered prefix."""
    shadow = ShardRouter(GRID, h=H)
    if n_rows:
        shadow.ingest(STREAM.slice(0, n_rows))
    return shadow


def assert_recovered_state_matches_shadow(recovered, shadow) -> None:
    assert recovered.shard_counts() == shadow.shard_counts()
    for s in range(shadow.n_shards):
        assert recovered.cuts(s) == shadow.cuts(s)
    for c in range(shadow.global_window_count()):
        for s in range(shadow.n_shards):
            a, b = recovered.shard_window(s, c), shadow.shard_window(s, c)
            for name in ("t", "x", "y", "s"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert (
                recovered.shard_window_gids(s, c).tobytes()
                == shadow.shard_window_gids(s, c).tobytes()
            )
            assert recovered.shard_window_sketch(
                s, c
            ) == shadow.shard_window_sketch(s, c)
    if shadow.global_count():
        probes = np.linspace(STREAM.t[0] - 1.0, STREAM.t[-1] + 1.0, 23)
        np.testing.assert_array_equal(
            recovered.windows_for_times(probes),
            shadow.windows_for_times(probes),
        )


def assert_answers_match_shadow(recovered, shadow) -> None:
    if not shadow.global_count():
        return
    rng = np.random.default_rng(99)
    n = 10
    queries = QueryBatch(
        rng.uniform(float(STREAM.t[0]), float(STREAM.t[-1]), n),
        rng.uniform(BOUNDS.min_x, BOUNDS.max_x, n),
        rng.uniform(BOUNDS.min_y, BOUNDS.max_y, n),
    )
    hot = ShardedQueryEngine(recovered, radius_m=2000.0)
    cold = ShardedQueryEngine(shadow, radius_m=2000.0)
    try:
        a = hot.continuous_query_batch(queries)
        b = cold.continuous_query_batch(queries)
        assert a.values.tobytes() == b.values.tobytes()
        np.testing.assert_array_equal(a.answered, b.answered)
        np.testing.assert_array_equal(a.support, b.support)
    finally:
        hot.close()
        cold.close()


def crash_and_recover(
    tmp_path, boundary: int, mode: str, torn: bool, batch_rows: int = BATCH_ROWS
):
    """One matrix cell: run to the boundary, kill, recover, check."""
    data_dir = tmp_path / "tier"
    acked = [0]
    with FaultInjector(crash_at=boundary, mode=mode, torn=torn) as injector:
        with pytest.raises(SimulatedCrash):
            run_workload(data_dir, acked, batch_rows)
    assert injector.crashed

    try:
        recovered = TieredShardRouter.open(data_dir)
    except ValueError:
        # A kill before the very first manifest commit leaves a directory
        # that is not yet self-describing; the operator re-supplies the
        # configuration (nothing was acknowledged by then).
        assert acked[0] == 0
        recovered = TieredShardRouter(GRID, h=H, data_dir=data_dir)
    try:
        n_rows = recovered.global_count()
        # Prefix durability: everything acknowledged survived; nothing
        # beyond the stream was invented; whole batches only (the WAL
        # logs ingest batches atomically).
        assert acked[0] <= n_rows <= len(STREAM)
        assert n_rows % batch_rows == 0
        shadow = shadow_router(n_rows)
        assert_recovered_state_matches_shadow(recovered, shadow)
        assert_answers_match_shadow(recovered, shadow)
    finally:
        recovered.close()
    return n_rows


def _matrix_size(batch_rows: int) -> int:
    def workload():
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            run_workload(d, [0], batch_rows)

    return count_boundaries(workload)


N_BOUNDARIES = _matrix_size(BATCH_ROWS)
N_PACK_BOUNDARIES = _matrix_size(PACK_BATCH_ROWS)
#: Every matrix cell, as ``(batch_rows, boundary)``: the one-window
#: workload keeps its plain boundary ids.
CELLS = [
    pytest.param(BATCH_ROWS, k, id=str(k)) for k in range(N_BOUNDARIES)
] + [
    pytest.param(PACK_BATCH_ROWS, k, id=f"multi-slice-{k}")
    for k in range(N_PACK_BOUNDARIES)
]


class TestCrashMatrix:
    """Every (durability boundary × crash mode) cell recovers exactly."""

    @pytest.mark.parametrize("batch_rows,boundary", CELLS)
    def test_kill_before_boundary(self, tmp_path, batch_rows, boundary):
        crash_and_recover(tmp_path, boundary, "before", False, batch_rows)

    @pytest.mark.parametrize("batch_rows,boundary", CELLS)
    def test_kill_after_boundary(self, tmp_path, batch_rows, boundary):
        crash_and_recover(tmp_path, boundary, "after", False, batch_rows)

    @pytest.mark.parametrize("batch_rows,boundary", CELLS)
    def test_torn_write_at_boundary(self, tmp_path, batch_rows, boundary):
        crash_and_recover(tmp_path, boundary, "before", True, batch_rows)

    def test_matrix_covers_all_record_kinds(self):
        """The workload really crosses every durability structure: WAL
        appends, pack writes, manifest replaces and WAL checkpoints all
        contribute boundaries."""
        # Per ingest batch: 1 WAL-append fsync.  Per seal: one fsync +
        # rename for the pack, one pair for the manifest, one pair for
        # the WAL checkpoint.  The creation-time manifest adds one
        # more pair.  Every kind must be present for the matrix to mean
        # anything.
        assert N_BOUNDARIES > N_BATCHES + 4 * 2 + 2

    def test_boundary_count_is_pinned(self):
        """Recount for one pack per seal: 4 WAL appends + the creation
        manifest (2) + 4 seals of one window each: the pack (holding
        both shards' slices), the manifest and the checkpoint, an fsync
        and a rename apiece (6) — was 8 per seal with one file per slice.
        The multi-slice workload: 2 WAL appends + the creation manifest
        (2) + 2 seals of two windows each, still 6 apiece although each
        pack holds four slices.  A seal that gains or loses a boundary
        changes what the matrix above proves."""
        assert N_BOUNDARIES == 4 + 2 + 4 * 6 == 30
        assert N_PACK_BOUNDARIES == 2 + 2 + 2 * 6 == 16

    def test_multi_slice_workload_packs_several_windows_and_shards(self, tmp_path):
        """Each ingest of the multi-slice workload seals 2 windows x 2
        shards into one pack."""
        run_workload(tmp_path / "tier", [0], PACK_BATCH_ROWS)
        with TieredShardRouter.open(tmp_path / "tier") as router:
            assert router.sealed_window_count() == 4
            for c in range(4):
                assert all(n for _stamp, n, _ in router.window_stats(c))
        names = sorted(p.name for p in (tmp_path / "tier" / "segments").iterdir())
        assert names == ["pack-w00000000.seg", "pack-w00000002.seg"]

    def test_orphan_pack_is_ignored_overwritten_and_compacted(self, tmp_path):
        """A kill after the pack's rename but before the manifest commit
        leaves a pack no manifest entry references.  Recovery never reads
        it (here it is garbled first), its re-seal overwrites it under
        the same name, and ``compact()`` removes a pack that nothing
        references."""
        data_dir = tmp_path / "tier"
        seg_dir = data_dir / "segments"
        orphan = seg_dir / "pack-w00000000.seg"
        acked = [0]
        # 0, 1: creation manifest; 2: batch 1's WAL append; 3, 4: its pack.
        with FaultInjector(crash_at=4, mode="after"):
            with pytest.raises(SimulatedCrash, match="pack-w00000000"):
                run_workload(data_dir, acked, PACK_BATCH_ROWS)
        assert acked[0] == 0 and orphan.exists()
        image = orphan.read_bytes()
        orphan.write_bytes(b"not a pack" * 7)
        recovered = TieredShardRouter.open(data_dir)
        try:
            assert recovered.sealed_window_count() == 2
            assert_recovered_state_matches_shadow(
                recovered, shadow_router(PACK_BATCH_ROWS)
            )
            assert orphan.read_bytes() == image  # re-sealed byte for byte
            (seg_dir / "pack-w00000099.seg").write_bytes(image)
            report = recovered.compact(verify=True)
            assert report["orphans_removed"] == 1
            assert report["segments_verified"] == 4
            assert [p.name for p in seg_dir.iterdir()] == [orphan.name]
        finally:
            recovered.close()

    def test_double_crash_then_recovery(self, tmp_path):
        """A crash during *recovery's own* re-seal is just another crash:
        a second cold open still lands on the oracle state."""
        data_dir = tmp_path / "tier"
        acked = [0]
        # Boundary 3 is the first seal's pack fsync (0, 1 are the
        # creation-time manifest, 2 is batch 1's WAL append): the kill
        # leaves window 0 complete in the WAL but unsealed, so recovery
        # must re-run the seal — which we then kill too.
        with FaultInjector(crash_at=3, mode="before") as injector:
            with pytest.raises(SimulatedCrash):
                run_workload(data_dir, acked)
        assert injector.crashed
        # Second crash: kill the recovery while it re-seals.
        with FaultInjector(crash_at=1, mode="before") as injector:
            with pytest.raises(SimulatedCrash):
                TieredShardRouter.open(data_dir)
        recovered = TieredShardRouter.open(data_dir)
        try:
            n_rows = recovered.global_count()
            assert acked[0] <= n_rows <= len(STREAM)
            assert_recovered_state_matches_shadow(recovered, shadow_router(n_rows))
        finally:
            recovered.close()

    def test_recovered_store_keeps_ingesting(self, tmp_path):
        """After a crash + recovery the store accepts the rest of the
        stream and ends bit-identical to a never-crashed shadow."""
        data_dir = tmp_path / "tier"
        acked = [0]
        with FaultInjector(crash_at=N_BOUNDARIES // 2, mode="before") as injector:
            with pytest.raises(SimulatedCrash):
                run_workload(data_dir, acked)
        assert injector.crashed
        recovered = TieredShardRouter.open(data_dir)
        try:
            n_rows = recovered.global_count()
            recovered.ingest(STREAM.slice(n_rows, len(STREAM)))
            assert_recovered_state_matches_shadow(
                recovered, shadow_router(len(STREAM))
            )
        finally:
            recovered.close()


class TestInjectorSemantics:
    """The harness itself: boundary counting and kill modes do what the
    matrix assumes they do."""

    def test_atomic_write_boundaries(self, tmp_path):
        path = tmp_path / "blob.bin"

        def workload():
            fsio.atomic_write_bytes(path, b"payload")

        assert count_boundaries(workload) == 2  # fsync(tmp), rename
        path.unlink()

    def test_kill_before_rename_leaves_no_file(self, tmp_path):
        path = tmp_path / "blob.bin"
        with FaultInjector(crash_at=1, mode="before"):
            with pytest.raises(SimulatedCrash):
                fsio.atomic_write_bytes(path, b"payload")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # temp cleaned up

    def test_kill_after_rename_leaves_the_file(self, tmp_path):
        path = tmp_path / "blob.bin"
        with FaultInjector(crash_at=1, mode="after"):
            with pytest.raises(SimulatedCrash):
                fsio.atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_torn_write_halves_the_tail(self, tmp_path):
        path = tmp_path / "log.bin"
        f = open(path, "ab")
        with FaultInjector(crash_at=0, mode="before", torn=True):
            with pytest.raises(SimulatedCrash):
                fsio.write(f, b"0123456789")
                fsio.fsync(f)
        f.close()
        assert path.read_bytes() == b"01234"

    def test_seams_restored_after_exit(self, tmp_path):
        before = (fsio.write, fsio.fsync, fsio.replace, fsio.fsync_dir)
        with FaultInjector(crash_at=0):
            assert fsio.fsync is not before[1]
        assert (fsio.write, fsio.fsync, fsio.replace, fsio.fsync_dir) == before
