"""The EnviroMeter front end: the paper's protocol in process, the web
modes over asyncio HTTP/1.1 + WebSocket.

:class:`EngineQueryService` is the one service over the one query
engine.  In process it answers the model-cache protocol (Figure 3,
Section 2.3): a ``QueryRequest`` gets the interpolated value, a
``ModelRequest`` the serialized cover (with its validity horizon
``t_n``) of the (shard, window) owning its time and position.  On the
network a stdlib-only :mod:`asyncio` server serves the service's
``modes`` and nothing else.

Routes:

* ``GET  /health``            — liveness + the modes this service serves;
* ``GET  /metrics``           — the engine's counter blocks
  (:class:`~repro.obs.Metrics`), one sorted JSON object;
* ``POST /query/point``       — ``{"t", "x", "y"}``;
* ``POST /query/continuous``  — ``{"route": [[x, y], ...], "t_start",
  "duration_s"?, "updates"?}``;
* ``POST /query/heatmap``     — ``{"t", "bounds": [min_x, min_y, max_x,
  max_y], "nx"?, "ny"?}``;
* ``POST /query/model``       — ``{"t", "x", "y"}``: the protocol's
  ``ModelRequest``, answered ``{"mode": "model", "cover": <base64 of
  the cover blob>}``;
* ``GET  /ws``                — WebSocket; each text message is a JSON
  request ``{"mode": "point" | "continuous" | "heatmap" | "model", ...}``
  with the same fields as the matching POST body, answered by one JSON
  text frame.  Fragmented client messages are reassembled per RFC 6455
  (continuation frames, control frames interleaved mid-message) up to
  ``_MAX_BODY``.

Before the first ingest every mode answers ``503 {"error": "no data
yet"}``; a ``model`` request whose owner (shard, window) slice holds no
rows is a 404.

When the service carries a
:class:`~repro.query.subscriptions.SubscriptionRegistry` (its
``subscriptions`` attribute), ``/ws`` additionally accepts standing
queries:

* ``{"mode": "subscribe", "route", "t_start", "interval_s"?,
  "updates"?, "method"?}`` — registers the route and answers one
  ``{"mode": "subscribed", "subscription", "seq": 0, "changes": [...]}``
  frame holding the full initial answer;
* after each ingest the server pushes ``{"mode": "update", ...}``
  frames carrying only the changed readings (delta maintenance runs on
  the server's workers, never on the event loop or the ingest thread);
* ``{"mode": "unsubscribe", "subscription": id}`` — stops the pushes.

Request limits (documented contract, enforced with 400s): heatmap
``nx``/``ny`` at most ``_MAX_GRID_AXIS`` (512) cells per axis,
``updates`` at most ``_MAX_UPDATES`` (10 000) points per route,
``duration_s``/``interval_s`` must be positive finite numbers, every
other number must be finite (``NaN``, ``Infinity``, integers beyond
float range and booleans are refused), bodies at most ``_MAX_BODY``
bytes, and ``Content-Length`` must be a plain non-negative integer.

Concurrency model: a connection is one :class:`asyncio.Protocol`
(``_HttpConnection``) over a single receive buffer.  ``data_received``
parses every complete request in it and, when the loop can answer —
``/health``, ``/metrics``, an error, or a request the service's
``cached`` answers without blocking — serialises and writes the answer
in that same callback: one loop iteration, one poll, one
``transport.write`` behind pre-encoded status/header bytes.  ``cached`` answers a point query whose
model cover is cached at the owner slice's live stamp — O(1) lock-free
reads and one cover evaluation on Python floats — and a ``model-cover``
route of at most ``CACHED_ROUTE_MAX_ROWS`` updates over at most
``_LANE_MAX_WAYPOINTS`` waypoints whose owner covers all are; a query
whose owner slice is empty is answered from its window's rows, cached
at the window's live stamps, when the request's empty-owner scans fit
one block of the exact gather in all.  All of it is decided from cache
and router state, never a clock (a longer route is not even validated
on the loop).  The loop
never runs a fit, a fault-in, a lock wait or a scan larger than one
gather block: everything else
runs on the server's worker threads (``_Workers``: one
``queue.SimpleQueue`` in, one ``loop.call_soon_threadsafe`` back, as
many threads as the loop's default executor would start) with the
connection's reading paused — one request in flight per
connection, so pipelined answers keep request order — so a slow Ad-KMN
fit never stalls the accept loop or a cached answer, and — when the
engine owns a process pool (``ShardedQueryEngine(..., processes=N)``) —
the exact methods' compute escapes the GIL onto the worker processes
entirely.  A
client that stops reading its answers stops being served: past the
transport's high-water mark (``pause_writing``) the connection reads
and answers nothing until ``resume_writing``.

``Upgrade: websocket`` switches the same connection to RFC 6455
frames, parsed from the same buffer (a frame's header sets the bytes
awaited, as a request head's length does) and answered as requests
are: a text message the lane answers is written in the callback,
anything else — a subscribe too — goes to a worker with reading
paused.  Every frame (reply, pong, close echo, push) is one
``transport.write`` behind the same gate.  A subscribed connection's
registry listener schedules one maintenance pass on a worker (rows
that arrive during a pass get exactly one more after it); the pass's
updates are pushed from the loop or, with the gate closed, stay queued
in the registry until it opens.  A closed connection's listener and
subscriptions leave the registry.  Every answer is computed over one pinned snapshot
binding, so concurrent requests — and a writer ingesting beside them —
need no extra locking here.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import functools
import hashlib
import http
import json
import math
import os
import queue
import struct
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cover import ModelCover
from repro.data.tuples import TupleBatch
from repro.geo.coords import BoundingBox
from repro.network.messages import (
    ModelCoverResponse,
    ModelRequest,
    QueryRequest,
    ValueResponse,
)
from repro.query.base import QueryBatch
from repro.query.pipeline.binding import RouterBinding
from repro.query.sharded import CACHED_ROUTE_MAX_ROWS, cached_cover

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_MAX_HEADER = 16 * 1024
_MAX_BODY = 4 * 1024 * 1024
# Request limits: a heatmap allocates nx*ny float64 cells and a
# continuous query evaluates one tuple per update, so both are capped
# well below anything that could balloon server memory.  Documented in
# docs/architecture.md ("Request limits").
_MAX_GRID_AXIS = 512
_MAX_UPDATES = 10_000
# The most waypoints a route may have to be built on the event loop for
# the cached lane: building costs ~14 us per leg at 128 updates, so 16
# keep it near 0.25 ms (docs/architecture.md, "The row cap").
_LANE_MAX_WAYPOINTS = 16

DEFAULT_COVER_CACHE_CAPACITY = 256
"""Bound for the cover cache of the paper's one-shard deployment (the
engine's ``cache_capacity``; epoch-keyed LRU).

One live entry per window recently served; generous enough that a month
of 4-hour windows stays resident, bounded so a long-running server
sweeping years of history cannot accrete covers forever."""

__all__ = [
    "AsyncQueryServer",
    "BackgroundServer",
    "EngineQueryService",
    "DEFAULT_COVER_CACHE_CAPACITY",
    "HttpError",
]


class HttpError(Exception):
    """An error with an HTTP status, surfaced as a JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _clean(value: float) -> Optional[float]:
    """JSON has no NaN/inf: unanswered cells serialize as null."""
    v = float(value)
    return v if math.isfinite(v) else None


def _clean_grid(grid) -> List[List[Optional[float]]]:
    """:func:`_clean` over every cell of a 2-D grid, as nested lists —
    one ``tolist`` and a patch per non-finite cell, not a call per cell."""
    grid = np.asarray(grid, dtype=np.float64)
    rows = grid.tolist()
    for i, j in zip(*(axis.tolist() for axis in np.nonzero(~np.isfinite(grid)))):
        rows[i][j] = None
    return rows


def _is_finite(value: Any) -> bool:
    """An int or float — ``bool`` is neither — that is finite as a float:
    ``json.loads`` also yields NaN, ±Infinity and ints beyond float range."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _number(params: Dict[str, Any], key: str) -> float:
    value = params.get(key)
    if not _is_finite(value):
        raise HttpError(400, f"field {key!r} must be a number")
    return float(value)


def _positive_number(params: Dict[str, Any], key: str, default: float) -> float:
    value = params.get(key, default)
    if not _is_finite(value) or value <= 0:
        raise HttpError(400, f"field {key!r} must be a positive number")
    return float(value)


def _optional_int(
    params: Dict[str, Any], key: str, default: int, maximum: int
) -> int:
    value = params.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise HttpError(400, f"field {key!r} must be a positive integer")
    if value > maximum:
        raise HttpError(400, f"field {key!r} must be at most {maximum}")
    return value


def _route(params: Dict[str, Any]) -> List[Tuple[float, float]]:
    raw = params.get("route")
    if not isinstance(raw, list) or len(raw) < 2:
        raise HttpError(400, "field 'route' must list at least two [x, y] points")
    route: List[Tuple[float, float]] = []
    for point in raw:
        if (
            not isinstance(point, (list, tuple))
            or len(point) != 2
            or not all(_is_finite(v) for v in point)
        ):
            raise HttpError(400, "route points must be [x, y] number pairs")
        route.append((float(point[0]), float(point[1])))
    return route


def _bounds(params: Dict[str, Any]) -> BoundingBox:
    raw = params.get("bounds")
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 4
        or not all(_is_finite(v) for v in raw)
    ):
        raise HttpError(
            400, "field 'bounds' must be [min_x, min_y, max_x, max_y]"
        )
    return BoundingBox(float(raw[0]), float(raw[1]), float(raw[2]), float(raw[3]))


#: Where :meth:`EngineQueryService.cached` leaves a declined route's
#: batch in its request's params — not a string, so no JSON body has it.
_ROUTE_BATCH = object()


def _route_batch(params: Dict[str, Any]):
    """A continuous request's validated uniform query-tuple stream: a
    route that cannot be interpolated (an empty time span, legs beyond
    float range) is the client's error, a 400."""
    from repro.query.continuous import uniform_route_batch

    route = _route(params)
    t_start = _number(params, "t_start")
    duration_s = _positive_number(params, "duration_s", 1800.0)
    updates = _optional_int(params, "updates", 30, _MAX_UPDATES)
    try:
        return uniform_route_batch(
            route, t_start, t_start + duration_s, duration_s / max(updates - 1, 1), updates
        )
    except ValueError as exc:
        raise HttpError(400, str(exc)) from None


def _lane_sized(params: Dict[str, Any]) -> bool:
    """Whether a raw route request is small enough to validate and build
    on the event loop: at most ``CACHED_ROUTE_MAX_ROWS`` updates over at
    most ``_LANE_MAX_WAYPOINTS`` waypoints.  Anything else — malformed
    fields included — goes to the executor untouched, so the loop's cost
    for a route is bounded whatever its body holds."""
    route, updates = params.get("route"), params.get("updates", 30)
    return (
        type(route) is list
        and len(route) <= _LANE_MAX_WAYPOINTS
        and type(updates) is int
        and updates <= CACHED_ROUTE_MAX_ROWS
    )


def _readings(result) -> Dict[str, Any]:
    """The continuous answer's JSON payload from a ``BatchResult``."""
    columns = (result.queries.x, result.queries.y, result.values, result.support)
    return {
        "mode": "continuous",
        "readings": [
            {"x": x, "y": y, "value": _clean(value), "support": support}
            for x, y, value, support in zip(*(col.tolist() for col in columns))
        ],
    }


class _Null:
    """What ``%r`` writes as JSON's ``null``: a non-finite value's slot
    in a lane body."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "null"


_NULL = _Null()
# ``json.dumps``' own layout (", " and ": ", keys in the dicts' order);
# ``%r`` of a float is its ``float.__repr__``, which ``json.dumps``
# writes for a finite float, and ``%d`` of an int its ``int.__repr__``.
_POINT_BODY = '{"mode": "point", "value": %r, "support": %d}'
_READING_BODY = '{"x": %r, "y": %r, "value": %r, "support": %d}'


@functools.lru_cache(maxsize=CACHED_ROUTE_MAX_ROWS)
def _readings_template(n: int) -> str:
    """The continuous body of ``n`` readings with a slot per field: one
    per route length the lane answers (1 to ``CACHED_ROUTE_MAX_ROWS``)."""
    return '{"mode": "continuous", "readings": [%s]}' % ", ".join([_READING_BODY] * n)


def _point_body(result) -> bytes:
    """``json.dumps`` of :meth:`EngineQueryService.point`'s payload for
    the ``QueryResult`` it would shape, as bytes, from one template."""
    value = None if result.value is None else _clean(result.value)
    return (_POINT_BODY % (_NULL if value is None else value, result.support)).encode()


def _readings_body(result) -> bytes:
    """``json.dumps(_readings(result))`` as bytes, for finite query
    positions (the lane declines any other): the result's four columns,
    taken as lists, interleaved into one template of ``len(result)``
    readings — no dict is built."""
    n = len(result)
    values = result.values.tolist()
    finite = np.isfinite(result.values)
    if not finite.all():
        for i in np.flatnonzero(~finite).tolist():
            values[i] = _NULL
    fields: List[Any] = [None] * (4 * n)
    fields[0::4] = result.queries.x.tolist()
    fields[1::4] = result.queries.y.tolist()
    fields[2::4] = values
    fields[3::4] = result.support.tolist()
    return (_readings_template(n) % tuple(fields)).encode()


def _unmask(data: bytes, mask: bytes) -> bytes:
    """``data[i] ^ mask[i % 4]`` (RFC 6455 §5.3) in one vectorised XOR: on
    the event loop, a byte loop over a legal 4 MiB frame stalls for a second."""
    n = len(data)
    key = np.frombuffer(mask * (n // 4 + 1), dtype=np.uint8)[:n]
    return (np.frombuffer(data, dtype=np.uint8) ^ key).tobytes()


#: A response's bytes up to the ``Content-Length`` value, by status.
_STATUS_HEADS = {
    status.value: (
        f"HTTP/1.1 {status.value} {status.phrase}\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: "
    ).encode("latin-1")
    for status in http.HTTPStatus
}


def _body(payload: Union[bytes, Dict[str, Any]]) -> bytes:
    """A payload's JSON body: a lane's bytes as they are, a handler's
    dict through ``json.dumps``."""
    return payload if type(payload) is bytes else json.dumps(payload).encode("utf-8")


def _response(status: int, payload: Union[bytes, Dict[str, Any]], close: bool) -> bytes:
    """One whole HTTP response (a status HTTP does not define is a 500)."""
    body = _body(payload)
    return b"%b%d\r\nConnection: %b\r\n\r\n%b" % (
        _STATUS_HEADS.get(status, _STATUS_HEADS[500]),
        len(body),
        b"close" if close else b"keep-alive",
        body,
    )


def _failure(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Status and JSON error body for what a request raised: anything
    but an :class:`HttpError` surfaces as a 500 and the server keeps
    serving."""
    if isinstance(exc, HttpError):
        return exc.status, {"error": exc.message}
    return 500, {"error": f"{type(exc).__name__}: {exc}"}


class EngineQueryService:
    """The one service over the one query engine: the paper's protocol
    in process, the web ``modes`` on the socket.

    ``engine`` is a :class:`~repro.query.sharded.ShardedQueryEngine`;
    the web modes' exact plans run on its process pool when it owns one,
    while the protocol, :meth:`ingest` and the event-loop lanes run in
    this process either way.  ``method`` is how the web modes answer; the
    protocol always answers from covers.  ``validity_horizon_s`` is how
    far past its slice's data a served cover is valid (its ``t_n``):
    four hours, the paper's largest evaluation window, by default.
    The engine's ``served`` block counts the protocol's answers
    (``values`` / ``covers``), and its ``ingest_rejects`` block the
    batches :meth:`ingest` refused, by reason.
    """

    modes = ("point", "continuous", "heatmap", "model")

    def __init__(
        self,
        engine,
        method: str = "naive",
        subscriptions=None,
        validity_horizon_s: float = 4.0 * 3600.0,
    ) -> None:
        self.engine = engine
        self.method = method
        self.subscriptions = subscriptions
        self.validity_horizon_s = validity_horizon_s
        self._served = engine.metrics.block("served", ("covers", "values"))
        self._rejects = engine.metrics.block("ingest_rejects")

    def _require_data(self) -> None:
        # The row count only grows, so a store that holds rows here
        # still holds them when the answer's binding is pinned.
        if not self.engine.router.global_count():
            raise HttpError(503, "no data yet")

    # -- ingestion -------------------------------------------------------------

    def ingest(self, batch: TupleBatch) -> int:
        """Append community-sensed tuples; returns how many.  The
        router's ingest (a batch breaking its contract raises
        ``ValueError`` and changes nothing — counted by the message's
        first clause), then one wake-up of the subscription registry
        when rows arrived."""
        try:
            n = sum(self.engine.router.ingest(batch))
        except ValueError as exc:
            self._rejects.bump(str(exc).partition(":")[0])
            raise
        if n and self.subscriptions is not None:
            self.subscriptions.notify_ingest()
        return n

    # -- the paper's protocol --------------------------------------------------

    def _cover(self, binding: RouterBinding, request: ModelRequest) -> ModelCover:
        """The cover a model request is served: the one the lanes answer
        from for the (shard, window) owning it at the binding's pin,
        stamped ``t_n`` = its slice's last timestamp + the validity
        horizon."""
        if not all(map(math.isfinite, (request.t, request.x, request.y))):
            raise ValueError(f"model request fields must be finite, got {request}")
        c = int(binding.windows_for_times((request.t,))[0])
        s = binding.grid.shard_of(request.x, request.y)
        bound = binding.slice_for(s, c)
        rows = bound[1]
        if not len(rows):
            raise LookupError(
                f"no rows in the slice owning ({request.x}, {request.y}) "
                f"at t={request.t}"
            )
        engine = self.engine
        cover = cached_cover(engine.processor_cache, engine.config, s, c, bound).cover
        return dataclasses.replace(cover, valid_until=float(rows.t[-1]) + self.validity_horizon_s)

    def handle(self, request):
        """Dispatch one client request (thread-safe)."""
        return self.handle_many_with_epoch([request])[0][0]

    def handle_with_epoch(self, request):
        """Like :meth:`handle`, also reporting the epoch the answer was
        computed at — the hook the concurrency harness uses to compare
        every concurrent answer against a serial replay."""
        responses, epoch = self.handle_many_with_epoch([request])
        return responses[0], epoch

    def handle_many(self, requests: Sequence) -> List:
        """Dispatch a batch of requests, in request order, all answered
        at one pinned binding (one epoch).

        The query requests are answered as one batch by the engine's
        route lane at the pinned binding
        (:meth:`~repro.query.sharded.ShardedQueryEngine.cached_route`).
        A query request with a non-finite field is answered ``NaN``; a
        model request with one raises ``ValueError``, and one whose
        owner slice is empty ``LookupError``.
        """
        return self.handle_many_with_epoch(requests)[0]

    def handle_many_with_epoch(self, requests: Sequence) -> Tuple[List, int]:
        """:meth:`handle_many` plus the pinned epoch."""
        engine = self.engine
        binding = engine.binding()
        responses: List[Any] = [None] * len(requests)
        queries: List[int] = []
        covers = 0
        for i, request in enumerate(requests):
            if isinstance(request, QueryRequest):
                if all(map(math.isfinite, (request.t, request.x, request.y))):
                    queries.append(i)
                else:
                    responses[i] = ValueResponse(t=request.t, value=math.nan)
            elif isinstance(request, ModelRequest):
                responses[i] = ModelCoverResponse(
                    blob=self._cover(binding, request).to_blob()
                )
                covers += 1
            else:
                raise TypeError(f"server cannot handle {type(request).__name__}")
        if queries:
            batch = QueryBatch(
                np.array([requests[i].t for i in queries]),
                np.array([requests[i].x for i in queries]),
                np.array([requests[i].y for i in queries]),
            )
            result = engine.cached_route(batch, "model-cover", binding=binding)
            for k, i in enumerate(queries):
                value = float(result.values[k]) if result.answered[k] else math.nan
                responses[i] = ValueResponse(t=requests[i].t, value=value)
        self._served.bump_all(covers=covers, values=len(requests) - covers)
        return responses, binding.epoch

    # -- the web modes ---------------------------------------------------------

    def _point(self, query, params: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        result = query(
            _number(params, "t"),
            _number(params, "x"),
            _number(params, "y"),
            method=self.method,
        )
        if result is None:
            return None
        return {
            "mode": "point",
            "value": None if result.value is None else _clean(result.value),
            "support": int(result.support),
        }

    def cached(self, mode: str, params: Dict[str, Any]) -> Optional[bytes]:
        """The answer's JSON body when it can be given without blocking
        (the server asks on its event-loop thread, before the mode's
        handler): for a ``model-cover`` service, a valid point query
        whose cover — or, for an empty owner slice, whose window's rows
        — the engine's ``cached_point`` finds cached, or a
        valid route that its ``cached_route`` finds cached in the same
        way.  Else ``None``.  The body is the bytes of ``json.dumps`` of
        what the mode's handler (:meth:`point`, :meth:`continuous`)
        answers, written from templates (:func:`_point_body`,
        :func:`_readings_body`).  A route longer than the lane takes
        (:func:`_lane_sized`) is not looked at here — it is validated
        and built on the executor; a declined route leaves the batch it
        built in ``params`` for :meth:`continuous` to answer, so a route
        is validated and interpolated once whichever path answers it."""
        # Only cover answers can be cached: other methods' requests never
        # enter the lane, and keep their whole cost off the loop.
        if self.method != "model-cover":
            return None
        engine = self.engine
        if mode == "point":
            result = engine.cached_point(
                _number(params, "t"), _number(params, "x"), _number(params, "y"), self.method
            )
            return None if result is None else _point_body(result)
        if mode != "continuous" or not _lane_sized(params):
            return None
        batch = _route_batch(params)
        result = engine.cached_route(batch, method=self.method)
        if result is None:
            params[_ROUTE_BATCH] = batch
            return None
        return _readings_body(result)

    def _point_query(self, t: float, x: float, y: float, method: str):
        self._require_data()
        return self.engine.point_query(t, x, y, method=method)

    def point(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self._point(self._point_query, params)

    def continuous(self, params: Dict[str, Any]) -> Dict[str, Any]:
        batch = params.pop(_ROUTE_BATCH, None)
        if batch is None:
            batch = _route_batch(params)
        self._require_data()
        return _readings(self.engine.continuous_query_batch(batch, method=self.method))

    def heatmap(self, params: Dict[str, Any]) -> Dict[str, Any]:
        bounds = _bounds(params)
        nx = _optional_int(params, "nx", 40, _MAX_GRID_AXIS)
        ny = _optional_int(params, "ny", 30, _MAX_GRID_AXIS)
        t = _number(params, "t")
        self._require_data()
        grid = self.engine.heatmap_grid(t, bounds, nx=nx, ny=ny, method=self.method)
        return {
            "mode": "heatmap",
            "nx": nx,
            "ny": ny,
            "grid": _clean_grid(grid),
        }

    def model(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The protocol's model request on the socket: the owner (shard,
        window)'s served cover blob, base64-encoded."""
        request = ModelRequest(
            t=_number(params, "t"), x=_number(params, "x"), y=_number(params, "y")
        )
        self._require_data()
        try:
            blob = self.handle(request).blob
        except LookupError as exc:
            raise HttpError(404, str(exc)) from None
        return {"mode": "model", "cover": base64.b64encode(blob).decode("ascii")}


def _default_workers() -> int:
    """The worker count ``ThreadPoolExecutor`` defaults to (and with it
    the loop's default executor): the process's CPUs plus four, at most
    32."""
    cpus = getattr(os, "process_cpu_count", os.cpu_count)()
    return min(32, (cpus or 1) + 4)


class _Workers:
    """Threads that run the server's blocking work off the event loop.

    A job goes in through one :class:`queue.SimpleQueue` and its outcome
    comes back with one ``loop.call_soon_threadsafe(done, result,
    error)`` — where ``run_in_executor`` chains a concurrent future to
    an asyncio one.  Threads start on demand, as the default executor's
    do: a submit finding none idle starts one, up to ``max_workers``.
    :meth:`close` stops and joins them.  Used from the event loop's
    thread only.
    """

    def __init__(self, max_workers: int) -> None:
        self._max = max_workers
        self._jobs: "queue.SimpleQueue" = queue.SimpleQueue()
        self._idle = threading.Semaphore(0)
        self._threads: List[threading.Thread] = []

    def submit(self, loop, done: Callable, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` on a worker; ``done(result, error)`` is then
        called on ``loop`` (``error`` None unless ``fn`` raised)."""
        self._jobs.put((loop, done, fn, args))
        if not self._idle.acquire(blocking=False) and len(self._threads) < self._max:
            thread = threading.Thread(
                target=self._run, name=f"query-worker-{len(self._threads)}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _run(self) -> None:
        jobs, idle = self._jobs, self._idle
        while True:
            job = jobs.get()
            if job is None:
                return
            loop, done, fn, args = job
            del job
            try:
                result, error = fn(*args), None
            except BaseException as exc:  # noqa: BLE001
                # Handed to the waiting side, as a future would hold it:
                # a request always gets its answer or its 500.
                result, error = None, exc
            try:
                loop.call_soon_threadsafe(done, result, error)
            except RuntimeError:
                pass  # the loop closed while the job ran: no one is waiting
            del loop, done, fn, args, result, error
            idle.release()

    def close(self) -> None:
        """Stop every thread once the jobs queued before it are done,
        and join them."""
        threads, self._threads = self._threads, []
        for _ in threads:
            self._jobs.put(None)
        for thread in threads:
            thread.join()


class AsyncQueryServer:
    """The asyncio front door: HTTP/1.1 routes plus a ``/ws`` endpoint.

    Blocking work runs on the server's own worker threads (as many as
    the loop's default executor would have); :meth:`close` stops them."""

    def __init__(
        self, service, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers = _Workers(_default_workers())

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _HttpConnection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._workers.close()

    async def serve_forever(self) -> None:
        """Serve until cancelled; :meth:`start` must have been awaited."""
        assert self._server is not None
        try:
            async with self._server:
                await self._server.serve_forever()
        finally:
            self._workers.close()

    # -- request dispatch ----------------------------------------------------

    def _lane(self, mode: str, params: Dict[str, Any]) -> Tuple[Any, Callable]:
        """``(payload, handler)``: the service's answer when it has one
        without blocking (its ``cached``: the body's bytes) — else
        ``None`` — beside the mode's handler, which may block (and
        answers a dict)."""
        handler = getattr(self.service, mode, None)
        if mode not in getattr(self.service, "modes", ()) or handler is None:
            raise HttpError(404, f"unknown mode {mode!r}")
        cached = getattr(self.service, "cached", None)
        return (cached(mode, params) if cached is not None else None), handler


class _HttpConnection(asyncio.Protocol):
    """One client connection — a single receive buffer in, whole
    responses (or, after a ``/ws`` upgrade, whole frames) out: the module
    docstring's concurrency model."""

    def __init__(self, server: "AsyncQueryServer") -> None:
        self._server = server
        self._transport: Any = None
        self._buf = bytearray()
        self._need = 0  # bytes the request or frame now arriving needs, once its head is in
        self._busy = False  # a request is on a worker
        self._choked = False  # the write buffer is over its high-water mark
        self._eof = False  # the client half-closed: answer what is buffered, close
        # After the upgrade: RFC 6455 frames, and this connection's
        # standing queries.
        self._ws = False
        self._open: Optional[int] = None  # opcode of the fragmented message open
        self._parts = bytearray()  # its payload so far
        self._subs: Dict[int, Any] = {}  # sub id -> Subscription
        self._listener: Optional[Callable[[], None]] = None
        self._maintaining = False  # a maintenance pass is on a worker
        self._again = False  # rows arrived during it: one more pass after it
        self._owed = False  # a push found the write gate closed

    def connection_made(self, transport) -> None:
        self._transport = transport

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        """No push outlives the connection: its listener and its
        subscriptions leave the registry."""
        if self._listener is not None:
            registry = self._server.service.subscriptions
            registry.remove_listener(self._listener)
            for sub_id in self._subs:
                registry.unregister(sub_id)
            self._subs.clear()

    def data_received(self, data: bytes) -> None:
        self._buf += data
        if len(self._buf) >= self._need:
            self._pump()

    def eof_received(self) -> bool:
        self._eof = True
        self._pump()
        return True  # keep the write side open for the answers still owed

    def pause_writing(self) -> None:
        self._choked = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._choked = False
        if self._owed:
            self._push()
        self._pump()

    def _pump(self) -> None:
        """Serve buffered requests until one has to block, no complete
        one is left, or the connection is closing."""
        if self._ws:
            return self._pump_frames()
        transport, buf = self._transport, self._buf
        while not (self._busy or self._choked or transport.is_closing()):
            end = buf.find(b"\r\n\r\n", 0, _MAX_HEADER + 4)
            if end < 0:
                if len(buf) >= _MAX_HEADER + 4:
                    return transport.close()  # oversize head: no answer
                return self._read_on()
            try:
                method, path, headers = self._parse_head(buf[: end + 4])
            except ValueError:
                return self._reply(400, {"error": "malformed request"}, close=True)
            if path == "/ws" and headers.get("upgrade", "").lower() == "websocket":
                return self._upgrade(headers, end + 4)
            raw_length = headers.get("content-length", "").strip() or "0"
            # int() is looser than the RFC (accepts "+1", "1_0", unicode
            # digits): require plain ASCII digits.
            if not (raw_length.isascii() and raw_length.isdigit()):
                return self._reply(
                    400, {"error": "invalid Content-Length header"}, close=True
                )
            # (int() itself refuses a numeral of thousands of digits.)
            length = int(raw_length) if len(raw_length) < 20 else _MAX_BODY + 1
            if length > _MAX_BODY:
                return self._reply(413, {"error": "body too large"}, close=True)
            self._need = end + 4 + length
            if len(buf) < self._need:
                return self._read_on()
            body = buf[end + 4 : self._need]
            del buf[: self._need]
            self._need = 0
            self._serve(
                method, path, body, headers.get("connection", "").lower() == "close"
            )

    @staticmethod
    def _parse_head(head: bytearray) -> Tuple[str, str, Dict[str, str]]:
        lines = head.decode("latin-1").split("\r\n")
        method, path, _version = lines[0].split(" ", 2)
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    def _read_on(self) -> None:
        """No complete request is buffered: wait for more bytes — or,
        after the client's half-close, nothing more is owed."""
        if self._eof:
            self._transport.close()
        else:
            self._transport.resume_reading()

    def _submit(self, done: Callable, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` on a worker, reading paused until
        ``done(result, error)`` runs on the loop: one request in flight,
        so answers keep request order."""
        self._server._workers.submit(asyncio.get_running_loop(), done, fn, *args)
        self._busy = True
        self._transport.pause_reading()

    def _serve(self, method: str, path: str, body: bytearray, close: bool) -> None:
        try:
            if method == "GET" and path == "/health":
                service = self._server.service
                payload = {
                    "status": "ok",
                    "modes": list(getattr(service, "modes", ())),
                    "subscriptions": getattr(service, "subscriptions", None)
                    is not None,
                }
            elif method == "GET" and path == "/metrics":
                payload = self._server.service.engine.metrics.render()
            elif method == "POST" and path.startswith("/query/"):
                try:
                    params = json.loads(body.decode("utf-8") or "{}")
                except (UnicodeDecodeError, json.JSONDecodeError):
                    raise HttpError(400, "body must be a JSON object") from None
                if not isinstance(params, dict):
                    raise HttpError(400, "body must be a JSON object")
                payload, handler = self._server._lane(path[len("/query/") :], params)
                if payload is None:
                    return self._submit(
                        functools.partial(self._finish, close), handler, params
                    )
            else:
                raise HttpError(404, f"no route {method} {path}")
            status = 200
        except Exception as exc:  # noqa: BLE001 - answered as an error, keep serving
            status, payload = _failure(exc)
        self._reply(status, payload, close)

    def _finish(
        self, close: bool, payload: Any, error: Optional[BaseException]
    ) -> None:
        """A worker's answer is in: write it, serve what queued up."""
        self._busy = False
        if self._transport.is_closing():
            return  # the client went away mid-request
        status, payload = (200, payload) if error is None else _failure(error)
        self._reply(status, payload, close)
        self._pump()

    def _reply(
        self, status: int, payload: Union[bytes, Dict[str, Any]], close: bool
    ) -> None:
        self._transport.write(_response(status, payload, close))
        if close:
            self._transport.close()

    # -- /ws: RFC 6455 over the same buffer ----------------------------------

    def _upgrade(self, headers: Dict[str, str], consumed: int) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            return self._reply(400, {"error": "missing Sec-WebSocket-Key"}, close=True)
        accept = base64.b64encode(
            hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
        )
        self._transport.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Accept: %b\r\n"
            b"\r\n" % accept
        )
        del self._buf[:consumed]  # what follows the head is frames
        self._ws = True
        self._pump_frames()

    def _pump_frames(self) -> None:
        """Serve buffered frames until a message has to wait for a
        worker, no complete frame is left, or the connection is closing.
        A frame breaking RFC 6455 closes the connection."""
        transport, buf = self._transport, self._buf
        while not (self._busy or self._choked or transport.is_closing()):
            if len(buf) < 2:
                return self._read_on()
            b0, b1 = buf[0], buf[1]
            if b0 & 0x70:
                # No extension negotiated, so RSV1-3 must be zero (§5.2).
                return transport.close()
            length = b1 & 0x7F
            at = 2 if length < 126 else 4 if length == 126 else 10
            if len(buf) < at:
                return self._read_on()
            if at > 2:
                length = int.from_bytes(buf[2:at], "big")
            if length > _MAX_BODY:
                return transport.close()
            if not b1 & 0x80:
                # RFC 6455 §5.1: client frames MUST be masked.
                return transport.close()
            self._need = at + 4 + length
            if len(buf) < self._need:
                return self._read_on()
            payload = _unmask(buf[at + 4 : self._need], buf[at : at + 4])
            del buf[: self._need]
            self._need = 0
            self._frame(bool(b0 & 0x80), b0 & 0x0F, payload)

    def _frame(self, fin: bool, opcode: int, payload: bytes) -> None:
        """One frame in.  RFC 6455 §5.4: a message is one non-FIN data
        frame followed by continuation frames (opcode 0x0) until a FIN;
        control frames may interleave mid-message but may not themselves
        be fragmented.  A text message is a request; a binary one is
        skipped."""
        transport = self._transport
        if opcode >= 0x8:
            # Control frames: never fragmented, payload <= 125.
            if not fin or len(payload) > 125:
                return transport.close()
            if opcode == 0x8:  # close: echo its status code, then close
                self._send(payload[:2], 0x8)
                return transport.close()
            if opcode == 0x9:  # ping
                return self._send(payload, 0xA)
            if opcode != 0xA:  # an unsolicited pong is ignored
                transport.close()
            return
        if opcode in (0x1, 0x2):
            if self._open is not None:
                return transport.close()  # a data frame inside a message
            if fin:
                if opcode == 0x1:
                    self._message(payload)
                return
            self._open = opcode
            self._parts += payload
        elif opcode == 0x0:
            if self._open is None:
                return transport.close()  # a continuation with no message open
            self._parts += payload
            if fin:
                kind, self._open = self._open, None
                message, self._parts = self._parts, bytearray()
                if kind == 0x1:
                    self._message(message)
                return
        else:
            return transport.close()  # an unknown data opcode
        if len(self._parts) > _MAX_BODY:
            transport.close()

    def _send(self, payload: Union[bytes, Dict[str, Any]], opcode: int = 0x1) -> None:
        """One unmasked, unfragmented frame: one ``transport.write``."""
        body = _body(payload)
        n = len(body)
        if n < 126:
            head = struct.pack(">BB", 0x80 | opcode, n)
        elif n < 1 << 16:
            head = struct.pack(">BBH", 0x80 | opcode, 126, n)
        else:
            head = struct.pack(">BBQ", 0x80 | opcode, 127, n)
        self._transport.write(head + body)

    def _message(self, payload: Union[bytes, bytearray]) -> None:
        """One text message: a JSON request with the POST body's fields
        and a ``mode``, answered by one text frame (an error too) — on
        the loop when it can be, else from a worker."""
        try:
            request = json.loads(payload.decode("utf-8"))
            if not isinstance(request, dict) or "mode" not in request:
                raise HttpError(400, "frame must be a JSON object with 'mode'")
            mode = str(request["mode"])
            if mode == "subscribe":
                return self._subscribe(request)
            if mode == "unsubscribe":
                reply = self._unsubscribe(request)
            else:
                reply, handler = self._server._lane(mode, request)
                if reply is None:
                    return self._submit(self._answered, handler, request)
        except Exception as exc:  # noqa: BLE001 - an error frame, keep serving
            reply = _failure(exc)[1]
        self._send(reply)

    def _answered(self, payload: Any, error: Optional[BaseException]) -> None:
        self._busy = False
        if self._transport.is_closing():
            return  # the client went away mid-request
        self._send(payload if error is None else _failure(error)[1])
        self._pump_frames()

    def _subscribe(self, request: Dict[str, Any]) -> None:
        """Register a standing query on a worker (its initial answer is
        an execution); the reply holds that answer."""
        registry = getattr(self._server.service, "subscriptions", None)
        if registry is None:
            raise HttpError(400, "subscriptions are not enabled on this backend")
        route = _route(request)
        t_start = _number(request, "t_start")
        interval_s = _positive_number(request, "interval_s", 60.0)
        count = _optional_int(request, "updates", 30, _MAX_UPDATES)
        method = request.get("method")
        if method is not None and not isinstance(method, str):
            raise HttpError(400, "field 'method' must be a string")
        self._submit(
            self._subscribed,
            functools.partial(
                registry.subscribe,
                route,
                t_start,
                interval_s=interval_s,
                count=count,
                method=method,
            ),
        )

    def _subscribed(self, sub: Any, error: Optional[BaseException]) -> None:
        self._busy = False
        registry = self._server.service.subscriptions
        if self._transport.is_closing():
            if error is None:  # the client went away mid-request
                registry.unregister(sub.id)
            return
        if error is None:
            self._subs[sub.id] = sub
            if self._listener is None:
                loop = asyncio.get_running_loop()
                self._listener = lambda: loop.call_soon_threadsafe(self._wake)
                registry.add_listener(self._listener)
            reply = {"mode": "subscribed", **sub.initial.to_json(queries=sub.batch)}
        elif isinstance(error, ValueError):
            reply = {"error": str(error)}  # the spec's refusal: a 400
        else:
            reply = _failure(error)[1]
        self._send(reply)
        self._pump_frames()

    def _unsubscribe(self, request: Dict[str, Any]) -> Dict[str, Any]:
        sub_id = request.get("subscription")
        if not isinstance(sub_id, int) or isinstance(sub_id, bool):
            raise HttpError(400, "field 'subscription' must be an integer id")
        if self._subs.pop(sub_id, None) is None:
            raise HttpError(400, f"unknown subscription {sub_id}")
        self._server.service.subscriptions.unregister(sub_id)
        return {"mode": "unsubscribed", "subscription": sub_id}

    def _wake(self) -> None:
        """Rows arrived (the registry's listener, scheduled on the loop):
        one maintenance pass on a worker — or, if one is running, one
        more after it."""
        if self._transport.is_closing():
            return
        if self._maintaining:
            self._again = True
            return
        self._maintaining = True
        self._server._workers.submit(
            asyncio.get_running_loop(),
            self._maintained,
            self._server.service.subscriptions.maintain,
        )

    def _maintained(self, _updates: Any, error: Optional[BaseException]) -> None:
        self._maintaining = False
        if self._transport.is_closing():
            return  # the client went away during the pass
        self._push()
        if self._again:
            self._again = False
            self._wake()
        if error is not None:
            raise error  # to the loop's exception handler; pushes go on

    def _push(self) -> None:
        """Each owned subscription's queued updates, one ``{"mode":
        "update"}`` frame each.  With the write gate closed they stay
        queued in the registry until ``resume_writing``."""
        registry = self._server.service.subscriptions
        for sub_id, sub in self._subs.items():
            if self._choked:
                self._owed = True
                return
            for update in registry.poll(sub_id, maintain=False):
                frame: Dict[str, Any] = {"mode": "update"}
                frame.update(update.to_json(queries=sub.batch))
                self._send(frame)
        self._owed = False


class BackgroundServer:
    """An :class:`AsyncQueryServer` on its own event-loop thread.

    For tests and embedding: ``with BackgroundServer(service) as server``
    yields a bound ``server.port`` on 127.0.0.1 and tears the loop down
    on exit.  The CLI's foreground mode uses ``serve_forever`` directly.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.server = AsyncQueryServer(service, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "BackgroundServer":
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            self._started.set()
            self._loop.run_forever()
            self._loop.run_until_complete(self.server.close())
            self._loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):  # pragma: no cover
            raise RuntimeError("server failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30.0)
            self._loop = None
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
