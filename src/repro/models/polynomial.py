"""Quadratic polynomial model — an ablation family.

``s = b0 + b1 u + b2 v + b3 u^2 + b4 v^2 + b5 uv`` on normalised, centred
spatial coordinates.  Like the linear family it is purely spatial (see
:mod:`repro.models.linear` for why time terms are excluded).  More
expressive than the paper's linear model at ~1.7x the wire size; the
model ablation benchmark measures whether the extra terms pay for
themselves.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.models.base import register_family

_N_BETA = 6


class PolynomialModel:
    """Second-order spatial model, centred and scale-normalised."""

    family = "poly2"

    __slots__ = ("_b", "_x0", "_y0", "_scale")

    def __init__(
        self, b: Sequence[float], x0: float, y0: float, scale: float
    ) -> None:
        b = tuple(float(v) for v in b)
        if len(b) != _N_BETA:
            raise ValueError(f"poly2 model expects {_N_BETA} betas, got {len(b)}")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self._b = b
        self._x0 = float(x0)
        self._y0 = float(y0)
        self._scale = float(scale)

    @classmethod
    def fit(cls, batch: TupleBatch) -> "PolynomialModel":
        if not len(batch):
            raise ValueError("cannot fit a model on an empty batch")
        x0 = float(np.mean(batch.x))
        y0 = float(np.mean(batch.y))
        # Normalise coordinates to O(1) so the quadratic terms do not blow
        # up the condition number.
        spread = max(float(np.std(batch.x)), float(np.std(batch.y)), 1.0)
        u = (batch.x - x0) / spread
        v = (batch.y - y0) / spread
        design = np.column_stack((np.ones(len(batch)), u, v, u * u, v * v, u * v))
        beta, *_ = np.linalg.lstsq(design, batch.s, rcond=None)
        return cls(beta, x0, y0, spread)

    def predict(self, t: float, x: float, y: float) -> float:
        return float(
            self.predict_batch(np.asarray([t]), np.asarray([x]), np.asarray([y]))[0]
        )

    def predict_batch(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.evaluate(self.coefficients(), t, x, y)

    @staticmethod
    def evaluate(c, t, x, y) -> np.ndarray:
        """The prediction from coefficient table ``c`` — ``c[k]`` is
        coefficient ``k`` in :meth:`coefficients` order, one model's
        float or one per query — at ``(t, x, y)``."""
        u = (np.asarray(x, dtype=np.float64) - c[6]) / c[8]
        v = (np.asarray(y, dtype=np.float64) - c[7]) / c[8]
        return c[0] + c[1] * u + c[2] * v + c[3] * u * u + c[4] * v * v + c[5] * u * v

    def coefficients(self) -> Tuple[float, ...]:
        return self._b + (self._x0, self._y0, self._scale)

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[float]) -> "PolynomialModel":
        expected = _N_BETA + 3
        if len(coeffs) != expected:
            raise ValueError(
                f"poly2 model expects {expected} coefficients, got {len(coeffs)}"
            )
        return cls(coeffs[:_N_BETA], coeffs[-3], coeffs[-2], coeffs[-1])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PolynomialModel(b={self._b})"


register_family("poly2", PolynomialModel.fit, PolynomialModel.from_coefficients)
