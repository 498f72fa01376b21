"""Shared-memory export of sealed columnar shard prefixes.

The process-parallel executor (:mod:`repro.query.pipeline.parallel`)
needs worker processes to read a shard's raw-tuple columns without
pickling megabytes of float64 per request.  This module gives each shard
one :class:`multiprocessing.shared_memory.SharedMemory` block holding a
fixed *prefix* of its stream — the four raw columns ``t, x, y, s`` plus
the aligned global stream positions (gids) the exact gather orders hits
by.

Why a prefix export is sound: the storage layer is append-only and a
shard's committed prefix is immutable (buffer reallocation in
:class:`~repro.storage.shards._NumericColumn` copies the prefix before the
swap, and rows never mutate in place).  Copying the first ``n`` rows into
a shared block therefore captures them forever — any plan op whose bound
slice lies inside ``[0, n)`` can be answered from the block, bit-for-bit
equal to reading the live buffers.  When the stream grows past the
export, the parent publishes a *new* block and retires the old one; a
block is never resized or rewritten after :func:`export_shard` returns.

Lifecycle (documented in ``docs/architecture.md``):

* the parent creates a block per shard on demand and is the only writer;
* workers attach read-only by name and keep **one attachment per
  shard**: a descriptor naming a shard's newer block closes the
  superseded mapping.  mp-spawned workers share the parent's
  resource-tracker daemon, so the attach-time re-registration is a
  harmless set no-op and a killed worker can never unlink memory the
  parent still serves from (see :class:`AttachedShard` for the
  non-child-process case);
* the parent unlinks a block when it is retired (superseded by a larger
  export) or on shutdown.  Workers already attached keep their mapping
  alive (POSIX shm survives unlink until the last unmap); a request
  racing the retirement may fail to attach, which the executor treats
  like any worker failure: fall back to in-process execution.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from repro.data.tuples import TupleBatch

_FLOAT_COLUMNS = ("t", "x", "y", "s")
_ITEMSIZE = 8  # float64 and int64 columns only


def _block_size(n_rows: int) -> int:
    # 4 float64 columns + 1 int64 gid column; shm blocks cannot be empty.
    return max(1, n_rows * _ITEMSIZE * (len(_FLOAT_COLUMNS) + 1))


@dataclass(frozen=True)
class ShardExportDescriptor:
    """Picklable handle a worker needs to attach one shard export."""

    shm_name: str
    n_rows: int


class ShardExport:
    """Parent-side owner of one shard's shared-memory prefix block."""

    def __init__(self, batch: TupleBatch, gids: np.ndarray) -> None:
        n = len(batch)
        if len(gids) < n:
            raise ValueError("gids must cover every exported row")
        self.n_rows = n
        name = f"emshm_{secrets.token_hex(8)}"
        self._shm = shared_memory.SharedMemory(
            create=True, size=_block_size(n), name=name
        )
        if n:
            for k, col in enumerate(_FLOAT_COLUMNS):
                dst = np.ndarray(
                    n, dtype="<f8", buffer=self._shm.buf, offset=k * n * _ITEMSIZE
                )
                dst[:] = getattr(batch, col)[:n]
            dst = np.ndarray(
                n,
                dtype="<i8",
                buffer=self._shm.buf,
                offset=len(_FLOAT_COLUMNS) * n * _ITEMSIZE,
            )
            dst[:] = gids[:n]
            del dst

    @property
    def name(self) -> str:
        return self._shm.name

    def descriptor(self) -> ShardExportDescriptor:
        return ShardExportDescriptor(self._shm.name, self.n_rows)

    def destroy(self) -> None:
        """Unlink the block (idempotent).  Attached workers keep their
        mapping; new attaches fail, which callers treat as a worker
        failure and fall back."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a live view pins the buffer
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def export_shard(batch: TupleBatch, gids: np.ndarray) -> ShardExport:
    """Copy the first ``len(batch)`` rows of a shard into a new block."""
    return ShardExport(batch, gids)


class AttachedShard:
    """Worker-side read-only view of one exported shard prefix.

    ``batch``/``gids`` are zero-copy numpy views straight into the shared
    block; slicing them (``batch.slice(start, stop)``) resolves a plan
    op's bound window without any further copying.
    """

    def __init__(
        self, descriptor: ShardExportDescriptor, untrack: bool = False
    ) -> None:
        self._shm = shared_memory.SharedMemory(name=descriptor.shm_name)
        # On Python < 3.13 attaching re-registers the block with the
        # resource tracker.  Workers spawned by multiprocessing *share*
        # the parent's tracker daemon, where registrations live in a set:
        # the duplicate register is a no-op, and unregistering here would
        # strip the parent's own registration — so by default we leave the
        # tracker alone.  ``untrack=True`` is for attachments from
        # processes with their *own* tracker (not mp-spawned children),
        # where the exit-time cleanup would otherwise unlink blocks the
        # exporter still serves.
        if untrack:
            try:
                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals vary
                pass
        n = descriptor.n_rows
        self.n_rows = n
        if n:
            cols = [
                np.ndarray(
                    n, dtype="<f8", buffer=self._shm.buf, offset=k * n * _ITEMSIZE
                )
                for k in range(len(_FLOAT_COLUMNS))
            ]
            gids = np.ndarray(
                n,
                dtype="<i8",
                buffer=self._shm.buf,
                offset=len(_FLOAT_COLUMNS) * n * _ITEMSIZE,
            )
        else:
            cols = [np.empty(0, dtype="<f8") for _ in _FLOAT_COLUMNS]
            gids = np.empty(0, dtype="<i8")
        gids.flags.writeable = False
        self.batch = TupleBatch(*cols)
        self.gids = gids

    def close(self) -> None:
        """Unmap the block.  Numpy views pin the buffer: this drops its
        own (``batch`` / ``gids``), and the mapping outlives the call
        for as long as the caller keeps a slice of them."""
        self.batch = self.gids = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a caller kept a view
            pass


def attach_shard(
    descriptor: ShardExportDescriptor, untrack: bool = False
) -> AttachedShard:
    """Attach to a block published by :func:`export_shard`."""
    return AttachedShard(descriptor, untrack=untrack)


class ShardExportRegistry:
    """Parent-side registry: the current export per shard, grown on demand.

    ``ensure(s, needed_rows, read_prefix)`` returns a descriptor whose
    block covers at least ``needed_rows`` rows of shard ``s``, creating or
    replacing the export from ``read_prefix()`` (a coherent
    ``(batch, gids)`` read of the shard's committed prefix) when the
    current one is too short.  Retired blocks are unlinked immediately —
    see the module docstring for why that is safe.

    ``layout`` is the router's shard-layout epoch: within one layout a
    shard's prefix is append-only, so the length test alone decides
    reuse — but a split/merge re-cut *replaces* the shard's rows, so an
    export from an older layout is retired even when it is long enough.
    Locked: two server threads growing one export would leak a block.
    """

    def __init__(self) -> None:
        self._exports: dict[int, ShardExport] = {}
        self._layouts: dict[int, int] = {}
        self._lock = threading.Lock()

    def current(self, s: int) -> Optional[ShardExport]:
        return self._exports.get(s)

    def ensure(
        self, s: int, needed_rows: int, read_prefix, layout: int = 0
    ) -> ShardExportDescriptor:
        with self._lock:
            export = self._exports.get(s)
            if (
                export is None
                or export.n_rows < needed_rows
                or self._layouts.get(s, 0) != layout
            ):
                batch, gids = read_prefix()
                if len(batch) < needed_rows:
                    raise RuntimeError(
                        f"shard {s}: prefix read returned {len(batch)} rows, "
                        f"plan needs {needed_rows}"
                    )
                replacement = export_shard(batch, gids)
                if export is not None:
                    export.destroy()
                self._exports[s] = export = replacement
                self._layouts[s] = layout
            return export.descriptor()

    def close(self) -> None:
        """Unlink every live export (idempotent)."""
        with self._lock:
            for export in self._exports.values():
                export.destroy()
            self._exports.clear()
            self._layouts.clear()
