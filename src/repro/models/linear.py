"""Linear regression model — the paper's choice (Section 2.1).

``s(x, y) = b0 + b1*x + b2*y`` fitted by least squares on the
sub-region's tuples (Figure 2 fits the regression on positions).  The
model is purely *spatial*: temporal change of the phenomenon is handled
by re-learning the cover every window W_c, not by extrapolating a time
slope — a time term fitted on the few minutes a bus spends inside one
sub-region would be wildly unconstrained hours later.

Coordinates are centred on the sub-region before fitting, which keeps the
normal equations well-conditioned for metre-scale magnitudes; the
centring offsets are part of the coefficient vector so the client can
rebuild the model exactly.  Three regression coefficients + two centring
offsets = 5 floats on the wire, versus ``4 * |R_k|`` floats for the raw
tuples they replace — the source of the memory and bandwidth wins in
Figures 7(a) and 7(b).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.data.tuples import TupleBatch
from repro.models.base import register_family


class LinearModel:
    """First-order spatial model in (x, y), centred at (x0, y0)."""

    family = "linear"

    __slots__ = ("_b", "_x0", "_y0")

    def __init__(self, b: Sequence[float], x0: float, y0: float) -> None:
        b = tuple(float(v) for v in b)
        if len(b) != 3:
            raise ValueError(f"linear model expects 3 betas, got {len(b)}")
        self._b = b
        self._x0 = float(x0)
        self._y0 = float(y0)

    #: Ridge penalty on the slope terms (not the intercept), in units of
    #: squared metres per tuple.  Community-sensed tuples lie along roads,
    #: i.e. nearly collinear point sets: the road-perpendicular gradient
    #: of an unregularised plane is then fixed by GPS noise over a ~10 m
    #: baseline and explodes when evaluated a few hundred metres off the
    #: road.  A penalty of (20 m)^2 per tuple swamps exactly that noise
    #: baseline while shrinking a well-constrained gradient (spread of
    #: hundreds of metres) by only a few percent.
    RIDGE_M2_PER_TUPLE = 400.0

    @classmethod
    def fit(cls, batch: TupleBatch) -> "LinearModel":
        """Ridge-regularised least-squares fit on a window of tuples.

        With fewer than 3 tuples (or a rank-deficient design, e.g. all
        tuples at one position) the slopes shrink to zero and the model
        degrades gracefully into the region mean instead of failing.
        """
        if not len(batch):
            raise ValueError("cannot fit a model on an empty batch")
        x0 = float(np.mean(batch.x))
        y0 = float(np.mean(batch.y))
        n = len(batch)
        design = np.column_stack(
            (
                np.ones(n),
                batch.x - x0,
                batch.y - y0,
            )
        )
        # Normal equations with a ridge on the slope coefficients only.
        gram = design.T @ design
        lam = cls.RIDGE_M2_PER_TUPLE * n
        gram[1, 1] += lam
        gram[2, 2] += lam
        rhs = design.T @ batch.s
        beta = np.linalg.solve(gram, rhs)
        return cls(beta, x0, y0)

    def predict(self, t: float, x: float, y: float) -> float:
        b0, b1, b2 = self._b
        return b0 + b1 * (x - self._x0) + b2 * (y - self._y0)

    def predict_batch(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.evaluate(self.coefficients(), t, x, y)

    @staticmethod
    def evaluate(c, t, x, y) -> np.ndarray:
        """The prediction from coefficient table ``c`` — ``c[k]`` is
        coefficient ``k`` in :meth:`coefficients` order, one model's
        float or one per query — at ``(t, x, y)``."""
        return (
            c[0]
            + c[1] * (np.asarray(x, dtype=np.float64) - c[3])
            + c[2] * (np.asarray(y, dtype=np.float64) - c[4])
        )

    def coefficients(self) -> Tuple[float, ...]:
        return self._b + (self._x0, self._y0)

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[float]) -> "LinearModel":
        if len(coeffs) != 5:
            raise ValueError(f"linear model expects 5 coefficients, got {len(coeffs)}")
        return cls(coeffs[:3], coeffs[3], coeffs[4])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LinearModel(b={self._b})"


register_family("linear", LinearModel.fit, LinearModel.from_coefficients)
