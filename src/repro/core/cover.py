"""The model cover ``(t_n, µ, M)``.

A :class:`ModelCover` is the multi-model abstraction of Section 2.1: the
cluster centroids ``µ = (µ1 .. µO)``, one fitted model per centroid, and
the validity deadline ``t_n``.  It is simultaneously

* the query-processing structure (nearest-centroid lookup + model
  evaluation, Section 2.2 "Model Cover" method), and
* the payload of the model-request response the server ships to
  model-cache clients (Section 2.3) — coefficients, centroids and ``t_n``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import Model, rebuild_model

_MAGIC = b"EMCV"
_VERSION = 1


@dataclass
class ModelCover:
    """A set of models responsible for sub-regions of R (Figure 1)."""

    centroids: np.ndarray        # (O, 2) float64
    models: List[Model]
    valid_until: float           # t_n
    family: str
    window_c: int = 0
    # (evaluate, table) when every model is of one class with a static
    # evaluate(c, t, x, y) over a coefficient table (the closed-form
    # families) — table[k, i] is coefficient k of model i — else None:
    # the cover is evaluated model by model.
    _table: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 2 or self.centroids.shape[1] != 2:
            raise ValueError("centroids must have shape (O, 2)")
        if len(self.centroids) != len(self.models):
            raise ValueError(
                f"{len(self.centroids)} centroids but {len(self.models)} models"
            )
        if not len(self.models):
            raise ValueError("a model cover needs at least one model")
        kinds = {type(m) for m in self.models}
        evaluate = getattr(kinds.pop(), "evaluate", None) if len(kinds) == 1 else None
        if evaluate is not None:
            table = np.array([m.coefficients() for m in self.models], dtype=np.float64)
            self._table = (evaluate, table.T.copy())

    # -- querying -------------------------------------------------------------

    @property
    def size(self) -> int:
        """O, the number of sub-regions/models."""
        return len(self.models)

    def nearest_index(self, x: float, y: float) -> int:
        """Index of the centroid µ* nearest to ``(x, y)``.

        A plain O(O) scan: O is small by construction (the whole point of
        the cover), so anything fancier would cost more than it saves.
        """
        cx = self.centroids[:, 0]
        cy = self.centroids[:, 1]
        d2 = (cx - x) ** 2 + (cy - y) ** 2
        return int(np.argmin(d2))

    def model_for(self, x: float, y: float) -> Model:
        """The model M* responsible for position ``(x, y)``."""
        return self.models[self.nearest_index(x, y)]

    def predict(self, t: float, x: float, y: float) -> float:
        """Interpolated sensor value at one query tuple — the model-cover
        query method of Section 2.2."""
        return self.model_for(x, y).predict(t, x, y)

    def predict_batch(
        self, t: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Vectorised prediction: :func:`predict_runs` with this cover as
        the one run — bitwise the value each query's owner predicts
        alone."""
        t = np.asarray(t, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.empty(len(x), dtype=np.float64)
        predict_runs((self,), ((0, len(x)),), t, x, y, out)
        return out

    def _by_model(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """A cover without a coefficient table: each owning model
        evaluates its queries in one ``predict_batch`` call."""
        owner = _d2(x, y, self.centroids[:, 0], self.centroids[:, 1]).argmin(axis=1)
        out = np.empty(len(x), dtype=np.float64)
        for k in np.flatnonzero(np.bincount(owner, minlength=self.size)):
            mask = owner == k
            out[mask] = self.models[k].predict_batch(t[mask], x[mask], y[mask])
        return out

    def is_valid_at(self, t: float) -> bool:
        """Whether a query at time ``t`` may still use this cover
        (the client-side ``t_l <= t_n`` check of Section 2.3)."""
        return t <= self.valid_until

    # -- serialization ---------------------------------------------------------

    def to_blob(self) -> bytes:
        """Binary encoding: what the model-request response carries on
        the wire."""
        family_b = self.family.encode("utf-8")
        parts = [
            _MAGIC,
            struct.pack("<HB", _VERSION, len(family_b)),
            family_b,
            struct.pack("<Iqd", self.size, self.window_c, self.valid_until),
        ]
        for (cx, cy), model in zip(self.centroids, self.models):
            coeffs = model.coefficients()
            parts.append(struct.pack("<ddI", float(cx), float(cy), len(coeffs)))
            parts.append(struct.pack(f"<{len(coeffs)}d", *coeffs))
        return b"".join(parts)

    @classmethod
    def from_blob(cls, blob: bytes) -> "ModelCover":
        """Decode a blob produced by :meth:`to_blob`.

        Raises ``ValueError`` on any structural corruption rather than
        returning a partially-decoded cover.
        """
        if blob[:4] != _MAGIC:
            raise ValueError("not a model-cover blob")
        offset = 4
        version, fam_len = struct.unpack_from("<HB", blob, offset)
        offset += struct.calcsize("<HB")
        if version != _VERSION:
            raise ValueError(f"unsupported cover version {version}")
        family = blob[offset : offset + fam_len].decode("utf-8")
        offset += fam_len
        size, window_c, valid_until = struct.unpack_from("<Iqd", blob, offset)
        offset += struct.calcsize("<Iqd")
        if size == 0:
            raise ValueError("cover blob declares zero models")
        centroids = np.empty((size, 2), dtype=np.float64)
        models: List[Model] = []
        for k in range(size):
            cx, cy, n_coeffs = struct.unpack_from("<ddI", blob, offset)
            offset += struct.calcsize("<ddI")
            coeffs = struct.unpack_from(f"<{n_coeffs}d", blob, offset)
            offset += 8 * n_coeffs
            centroids[k] = (cx, cy)
            models.append(rebuild_model(family, coeffs))
        if offset != len(blob):
            raise ValueError(
                f"trailing bytes in cover blob ({len(blob) - offset} extra)"
            )
        return cls(
            centroids=centroids,
            models=models,
            valid_until=valid_until,
            family=family,
            window_c=window_c,
        )

    def wire_size_bytes(self) -> int:
        """Size of the serialized cover — the model-cache response payload
        measured in the bandwidth experiment (Figure 7(b))."""
        return len(self.to_blob())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ModelCover(O={self.size}, family={self.family!r}, "
            f"t_n={self.valid_until:.0f})"
        )


def _d2(x: np.ndarray, y: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Squared distances from queries ``(x, y)`` to centroids ``(cx,
    cy)``: one row per query, one column per centroid."""
    return (x[:, None] - cx) ** 2 + (y[:, None] - cy) ** 2


def predict_runs(
    covers: Sequence[ModelCover],
    spans: Sequence[Tuple[int, int]],
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    out: np.ndarray,
) -> None:
    """Every cover run of a request in one pass: ``covers[i]`` answers
    the queries ``spans[i] = (lo, hi)`` of ``t``, ``x``, ``y`` into
    ``out[lo:hi]`` (spans do not overlap; queries outside every span
    are left as they are).

    A query's owner is the nearest of its own cover's centroids, the
    first of equals (``nearest_index``'s strict ``<``), found in one
    distance matrix over every cover's centroids in which the other
    covers' columns read inf.  A query's own columns come in a block,
    so argmin's first minimum is its own cover's first minimum —
    including a first NaN — unless its own distances all overflowed to
    inf too; then the row is all inf, argmin reads 0, and the owner is
    raised to the own cover's first column, which is what argmin over
    the own columns alone gives.  Covers whose models share a
    closed-form class are evaluated by one gather from their stacked
    coefficient tables and one call of the class's ``evaluate``; a
    cover without a table answers its own run model by model.  Bitwise
    each cover's own :meth:`ModelCover.predict_batch` of its run, which
    is this function with one run.
    """
    tabled: Dict[object, list] = {}
    for cover, (lo, hi) in zip(covers, spans):
        if cover._table is None:
            out[lo:hi] = cover._by_model(t[lo:hi], x[lo:hi], y[lo:hi])
        elif hi > lo:
            tabled.setdefault(cover._table[0], []).append((cover, lo, hi))
    for evaluate, runs in tabled.items():
        if len(runs) == 1:
            ((cover, lo, hi),) = runs
            qx, qy = x[lo:hi], y[lo:hi]
            centroids = cover.centroids
            owner = _d2(qx, qy, centroids[:, 0], centroids[:, 1]).argmin(axis=1)
            out[lo:hi] = evaluate(cover._table[1][:, owner], t[lo:hi], qx, qy)
            continue
        if all(a[2] == b[1] for a, b in zip(runs, runs[1:])):
            where = slice(runs[0][1], runs[-1][2])
        else:
            where = np.concatenate([np.arange(lo, hi) for _cover, lo, hi in runs])
        qx, qy = x[where], y[where]
        counts = [hi - lo for _cover, lo, hi in runs]
        sizes = [cover.size for cover, _lo, _hi in runs]
        ids = np.arange(len(runs))
        own = ids.repeat(counts)  # each query's run
        col = ids.repeat(sizes)  # each stacked centroid's run, ascending
        centroids = np.concatenate([cover.centroids for cover, _lo, _hi in runs])
        d2 = _d2(qx, qy, centroids[:, 0], centroids[:, 1])
        d2[own[:, None] != col] = np.inf
        owner = np.maximum(d2.argmin(axis=1), col.searchsorted(own))
        table = np.concatenate([cover._table[1] for cover, _lo, _hi in runs], axis=1)
        out[where] = evaluate(table[:, owner], t[where], qx, qy)
