"""Reference exact gather: whole-op hit triples, one global sort.

The exact gather exactly as it stood before the blocked gather replaced
it in process (and, later, on the process executor's workers) — moved
here unedited from :mod:`repro.query.pipeline.gather`.  One hit partial
``(query position, global stream position, value)`` per op
(:func:`scan_hits`), then one stable sort of the
composite key and one segmented sum over *all* of them
(:func:`merge_hit_partials`).  It allocates in proportion to the plan's
hits and is obviously right, which is what a test oracle should be:
``tests/test_exact_gather.py`` and ``tests/test_engine_equivalence.py``
hold the production gather byte-equal to it (as
``tests/reference_plans.py`` is the oracle of the plan builders).  Do
not optimise it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.query.base import BatchResult, QueryBatch
from repro.query.pipeline.gather import BLOCK_CELLS, scan_pairs

# Exact hit partials: parallel (query position, global stream position,
# sensor value) arrays — what process workers send back to the parent.
HitPartial = Tuple[np.ndarray, np.ndarray, np.ndarray]


def scan_hits(
    window: TupleBatch, gids: np.ndarray, queries: QueryBatch, radius_m: float
) -> HitPartial:
    """All ``(query, stream position, value)`` hit triples of a radius scan.

    ``gids`` are the window rows' global stream positions, aligned with
    ``window``.  Walks the queries in :data:`BLOCK_CELLS` tiles of
    :func:`scan_pairs`, so a worker's footprint stays the hit triples it
    must ship anyway.
    """
    m, n = len(queries), len(window)
    if not m or not n:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    step = max(1, BLOCK_CELLS // n)
    pairs = [
        scan_pairs(window, queries, lo, min(lo + step, m), radius_m)
        for lo in range(0, m, step)
    ]
    qi, ti = (np.concatenate(part) for part in zip(*pairs))
    return qi, gids[ti], window.s[ti]


def merge_hit_partials(
    n_queries: int,
    n_stream_rows: int,
    partials: Sequence[HitPartial],
    queries: QueryBatch,
) -> BatchResult:
    """Exact partition-independent gather of whole-op hit partials.

    The parent side of the process executor (in process the blocked
    gather does the same per block) and the reference
    ``tests/test_exact_gather.py`` holds :func:`reduce_hit_block`
    byte-equal to — so do not optimise it independently: it is the
    second statement of the sort-then-segmented-sum, kept deliberately
    plain.  Hits are put in canonical
    ``(query, stream position)`` order — a single stable sort of the
    composite int64 key — and each query's values are summed with one
    segmented ``np.add.reduceat``.  A tuple is owned by exactly one
    shard and its stream position never changes, so the canonical
    sequence per query is *the stream order itself*: every output byte
    is independent of the region partition, and the 1-shard and N-shard
    configurations agree exactly.
    """
    values = np.full(n_queries, np.nan)
    support = np.zeros(n_queries, dtype=np.int64)
    live = [p for p in partials if len(p[0])]
    if live:
        probe = np.concatenate([p for p, _, _ in live])
        gid = np.concatenate([g for _, g, _ in live])
        vals = np.concatenate([v for _, _, v in live])
        # Under concurrent ingest a hit's gid can transiently exceed the
        # row counter the caller read; widen the stride so the composite
        # sort key stays collision-free either way.
        stride = np.int64(max(n_stream_rows, int(gid.max()) + 1, 1))
        order = np.argsort(probe.astype(np.int64) * stride + gid, kind="stable")
        probe = probe[order]
        vals = vals[order]
        seg_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(probe) != 0) + 1)
        )
        sums = np.add.reduceat(vals, seg_starts)
        hit_queries = probe[seg_starts]
        counts = np.bincount(probe, minlength=n_queries)
        support = counts.astype(np.int64)
        values[hit_queries] = sums / counts[hit_queries]
    return BatchResult(queries, values, support, answered=support > 0)
