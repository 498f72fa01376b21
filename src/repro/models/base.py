"""The model protocol and the family registry.

A model is fitted on the tuples of one sub-region and later evaluated at
arbitrary query positions.  Models must also expose their coefficient
vector — that is what the model-cache protocol ships to the smartphone
(Section 2.3: "the coefficients of all the models in M") — and be
reconstructible from it on the client side.
"""

from __future__ import annotations

from typing import Callable, Dict, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.data.tuples import TupleBatch


@runtime_checkable
class Model(Protocol):
    """Structural type for all per-subregion models.

    A closed-form family's class also has a static ``evaluate(c, t, x,
    y)``: its ``predict_batch`` expression over a coefficient table
    (``c[k]`` is coefficient ``k``, one model's or one per query), which
    ``predict_batch`` itself calls and :class:`~repro.core.cover.ModelCover`
    calls once over every query's owner (bitwise the per-model answer).
    """

    family: str

    def predict(self, t: float, x: float, y: float) -> float:
        """Interpolated sensor value at one space-time point."""
        ...

    def predict_batch(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised prediction."""
        ...

    def coefficients(self) -> Tuple[float, ...]:
        """The flat coefficient vector shipped over the wire."""
        ...


ModelFactory = Callable[[TupleBatch], Model]
"""A callable fitting a model of some family on a window of tuples."""

_REGISTRY: Dict[str, ModelFactory] = {}
_REBUILDERS: Dict[str, Callable[[Sequence[float]], Model]] = {}


def register_family(
    name: str,
    fit: ModelFactory,
    rebuild: Callable[[Sequence[float]], Model],
) -> None:
    """Register a model family under ``name``.

    ``fit`` trains from tuples (server side); ``rebuild`` reconstructs from
    a received coefficient vector (client side).
    """
    if name in _REGISTRY:
        raise ValueError(f"model family {name!r} already registered")
    _REGISTRY[name] = fit
    _REBUILDERS[name] = rebuild


def model_factory(family: str) -> ModelFactory:
    """The fitting function for a registered family."""
    try:
        return _REGISTRY[family]
    except KeyError:
        raise KeyError(
            f"unknown model family {family!r}; known: {sorted(_REGISTRY)}"
        ) from None


def rebuild_model(family: str, coefficients: Sequence[float]) -> Model:
    """Reconstruct a model from its wire coefficients."""
    try:
        rebuild = _REBUILDERS[family]
    except KeyError:
        raise KeyError(
            f"unknown model family {family!r}; known: {sorted(_REBUILDERS)}"
        ) from None
    return rebuild(coefficients)


def registered_families() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
