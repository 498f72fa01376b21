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
from typing import List, Optional

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
        """Vectorised prediction: every query's owning model, then one
        gather of the owners' coefficients and one call of the model
        class's ``evaluate`` over all queries (closed-form families);
        other families evaluate each owning model's queries in one
        ``predict_batch`` call.  Bitwise the value each query's owner
        predicts alone, either way."""
        t = np.asarray(t, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not len(x):
            return np.empty(0, dtype=np.float64)
        d2 = (
            (x[:, None] - self.centroids[None, :, 0]) ** 2
            + (y[:, None] - self.centroids[None, :, 1]) ** 2
        )
        # argmin keeps the first minimum, matching the scalar scan's
        # strict-< tie-break in nearest_index / ModelCoverProcessor.
        owner = np.argmin(d2, axis=1)
        if self._table is not None:
            evaluate, coefficients = self._table
            return evaluate(coefficients[:, owner], t, x, y)
        out = np.empty(len(x), dtype=np.float64)
        hits = np.bincount(owner, minlength=self.size)
        for k in np.flatnonzero(hits):
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
