"""Per-layer trace taken from outside the program.

Nothing in ``src`` is patched.  The traced run builds the same stack as
the launcher, but hands ``EngineQueryService`` a delegating *engine proxy*
whose three query modes are re-expressed with the engine's public
``plan()`` + ``execute()``, and hands the engine a delegating *router
proxy* that times the calls a binding makes.  Spans go around those calls
and around the JSON parse / service / serialise steps the async server
performs per request; counters are read from the public stats objects as
deltas.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.geo.coords import BoundingBox
from repro.query.base import QueryBatch
from repro.query.pipeline.plan import PlanReport


@dataclass(slots=True, eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: Optional["Span"]  # the enclosing span
    request: int  # spans of one request share this id

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Context manager for one span (a class, not a generator: entering
    and leaving must cost well under the shortest layer it times)."""

    __slots__ = ("_stack", "span")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        try:
            stack = recorder._open.stack
        except AttributeError:
            stack = recorder._open.stack = []
        self._stack = stack
        self.span = Span(name, 0.0, 0.0, stack[-1] if stack else None, recorder.request)
        recorder.spans.append(self.span)  # atomic under the GIL

    def __enter__(self) -> Span:
        self._stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.span.end = time.perf_counter()
        self._stack.pop()


class Recorder:
    """In-memory span sink with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self.request = -1
        self._open = threading.local()

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    def add(self, name: str, parent: Span, duration: float) -> None:
        """A child span whose length was measured by the program itself
        (the executor's per-op clock); it is anchored at its parent's start."""
        self.spans.append(
            Span(name, parent.start, parent.start + duration, parent, parent.request)
        )


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus what its direct children cover (children
    of one parent run one after another here, so their lengths add)."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    return [max(0.0, s.duration - covered[id(s)]) for s in spans]


def per_request(spans: List[Span], values: List[float]) -> Dict[str, Dict[int, float]]:
    """``values`` (one per span) summed by span name and request id."""
    out: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for span, value in zip(spans, values):
        if span.request >= 0:
            out[span.name][span.request] += value
    return out


# -- proxies -------------------------------------------------------------------------

PLAN = "query.pipeline.planner.plan"
EXECUTE = "query.pipeline.executor.execute"
SCAN = "query.pipeline.executor.scan"
BIND_WINDOWS = "query.pipeline.binding.windows"
BIND_SLICE = "query.pipeline.binding.slice"
FAULT = "storage.tiered.fault"


class RouterProxy:
    """Delegates to a router, timing what a ``RouterBinding`` calls."""

    def __init__(self, router, recorder: Recorder) -> None:
        self._router = router
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._router, name)

    def _timed(self, span: str, method: str, *args):
        call = getattr(self._router, method)
        if not self._recorder.enabled:
            return call(*args)
        faults = getattr(self._router, "faults", 0)
        with self._recorder.span(span) as opened:
            result = call(*args)
        if getattr(self._router, "faults", 0) > faults:
            # The call read a segment file: the tier's fault-in path.
            self._recorder.add(FAULT, opened, opened.duration)
        return result

    def windows_for_times(self, ts):
        return self._timed(BIND_WINDOWS, "windows_for_times", ts)

    def snapshot_window(self, s: int, c: int):
        return self._timed(BIND_SLICE, "snapshot_window", s, c)

    def snapshot_window_sketch(self, s: int, c: int):
        return self._timed(BIND_SLICE, "snapshot_window_sketch", s, c)


class EngineProxy:
    """Delegates to a ``ShardedQueryEngine``; the three query modes go
    through its public ``plan`` and ``execute`` so each half gets a span.
    The answers are the engine's own: the same two calls, in the same
    order, with the same arguments as ``continuous_query_batch`` makes."""

    def __init__(self, engine, recorder: Recorder) -> None:
        self.engine = engine
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self.engine, name)

    def continuous_query_batch(self, queries, method: str = "naive"):
        batch = (
            queries if isinstance(queries, QueryBatch) else QueryBatch.from_queries(queries)
        )
        rec = self._recorder
        if not len(batch):
            return self.engine.continuous_query_batch(batch, method=method)
        with rec.span(PLAN):
            plan = self.engine.plan(batch, method)
        report = PlanReport()
        with rec.span(EXECUTE) as opened:
            result = self.engine.execute(plan, report)
        # The ops of one plan overlap on the engine's pool, so their
        # clocks do not add; the longest one is what the gather waited for.
        rec.add(SCAN, opened, min(max(report.elapsed_s.values(), default=0.0), opened.duration))
        return result

    def point_query(self, t: float, x: float, y: float, method: str = "naive"):
        batch = QueryBatch(np.array([t]), np.array([x]), np.array([y]))
        return self.continuous_query_batch(batch, method=method).result(0)

    def heatmap_grid(
        self, t: float, bounds: BoundingBox, nx: int = 40, ny: int = 30,
        method: str = "naive",
    ):  # fmt: skip
        probes = QueryBatch.from_grid(
            t, bounds.min_x, bounds.min_y, bounds.width, bounds.height, nx, ny
        )
        return self.continuous_query_batch(probes, method=method).grid(ny, nx)


# -- what the async server does around the service call -------------------------------

PARSE = "server.async_server.parse"
SERVICE = "server.async_server.service"
SERIALISE = "server.async_server.serialise"


def answer(
    service, mode: str, body: bytes, recorder: Optional[Recorder] = None
) -> bytes:
    """Body bytes in, body bytes out: the same three steps, in the same
    order, as ``AsyncQueryServer._handle_request`` + ``_respond``."""
    if recorder is None:
        params = json.loads(body.decode("utf-8"))
        payload = getattr(service, mode)(params)
        return json.dumps(payload).encode("utf-8")
    with recorder.span(PARSE):
        params = json.loads(body.decode("utf-8"))
    with recorder.span(SERVICE):
        payload = getattr(service, mode)(params)
    with recorder.span(SERIALISE):
        return json.dumps(payload).encode("utf-8")


def dump(spans: List[Span], path) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as f:
        json.dump(
            [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "request": s.request,
                }
                for s in spans
            ],
            f,
        )
