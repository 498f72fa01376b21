"""Wall-clock timing helpers: :class:`Timer` / :func:`time_callable`
serve the efficiency experiment."""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["Timer", "time_callable"]


class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed_s >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed_s: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed_s = time.perf_counter() - self._start


def time_callable(fn: Callable[[], None], repeats: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
