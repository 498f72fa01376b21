"""Constant (mean) model — the simplest family.

Predicts the window mean everywhere in its sub-region.  One coefficient
on the wire.  Serves as the ablation floor: Ad-KMN with mean models needs
many more sub-regions to reach the same τn than with linear models.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.models.base import register_family


class MeanModel:
    """``s(t, x, y) = c``."""

    family = "mean"

    __slots__ = ("_c",)

    def __init__(self, c: float) -> None:
        self._c = float(c)

    @classmethod
    def fit(cls, batch: TupleBatch) -> "MeanModel":
        if not len(batch):
            raise ValueError("cannot fit a model on an empty batch")
        return cls(float(np.mean(batch.s)))

    def predict(self, t: float, x: float, y: float) -> float:
        return self._c

    def predict_batch(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.evaluate(self.coefficients(), t, x, y)

    @staticmethod
    def evaluate(c, t, x, y) -> np.ndarray:
        """The prediction from coefficient table ``c`` — ``c[0]`` is one
        model's float or one per query — at ``(t, x, y)``."""
        shape = np.broadcast(np.asarray(t), np.asarray(x), np.asarray(y)).shape
        return np.full(shape, c[0], dtype=np.float64)

    def coefficients(self) -> Tuple[float, ...]:
        return (self._c,)

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[float]) -> "MeanModel":
        if len(coeffs) != 1:
            raise ValueError(f"mean model expects 1 coefficient, got {len(coeffs)}")
        return cls(coeffs[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MeanModel(c={self._c:.2f})"


register_family("mean", MeanModel.fit, MeanModel.from_coefficients)
