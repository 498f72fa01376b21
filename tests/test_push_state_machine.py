"""The ``/ws`` push path as a state machine: 1–3 connections of one
server, in process over recording transports, under drawn sequences of
subscribe, unsubscribe, tail ingest, write-gate choke/resume, close,
and holding a pass on its worker between its maintenance and its drain
(so ingests, subscribes and unsubscribes land during a pass).

Whenever the machine settles (no pass on a worker, every unregistration
done, every gate open), every live subscription's pushed ``seq``\\ s run
gap-free from 1, and its initial answer with the pushed deltas applied
equals a from-scratch execution at the settled store
(``registry.reference_answers``); a subscription gone from its
connection got no push after its ``"unsubscribed"`` reply.
"""

from __future__ import annotations

import asyncio
import functools
import json

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.query.sharded import ShardedQueryEngine
from repro.query.subscriptions import registry_for
from repro.server.async_server import AsyncQueryServer, EngineQueryService
from repro.storage.shards import ShardRouter

from test_server_async_validation import (
    _HeldMaintain,
    _RecordingTransport,
    _connect,
    _server_frames,
    _until,
    _ws_request,
    _ws_upgrade,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_TAIL_ROWS = 100


@functools.lru_cache(maxsize=1)
def _tuples():
    return generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0, seed=7)).tuples


class PushMachine(RuleBasedStateMachine):
    """One server over a store holding the head of the stream; the rest
    of the stream arrives in tail batches."""

    def __init__(self) -> None:
        super().__init__()
        tuples = _tuples()
        pad = 500.0
        bbox = BoundingBox(
            float(tuples.x.min()) - pad,
            float(tuples.y.min()) - pad,
            float(tuples.x.max()) + pad,
            float(tuples.y.max()) + pad,
        )
        self.tuples = tuples
        self.rows = int(0.6 * len(tuples))
        router = ShardRouter(RegionGrid(bbox, nx=2, ny=2), h=240)
        router.ingest(tuples.slice(0, self.rows))
        engine = ShardedQueryEngine(router)
        self.registry = registry_for(engine)
        self.service = EngineQueryService(engine, subscriptions=self.registry)
        self.loop = asyncio.new_event_loop()
        self.errors = []  # what reached the loop's exception handler
        self.loop.set_exception_handler(lambda loop, context: self.errors.append(context))
        self.server = AsyncQueryServer(self.service)
        # [connection, transport, bytes written when its gate closed or
        # None while it is open], one per open connection
        self.conns = []
        self.owned = {}  # sub id -> (connection, initial changes)
        self.gone = {}  # sub id -> (transport, frames written before its end)
        self.transports = {}  # sub id -> the transport it was subscribed on, every one
        self.held = None  # the _HeldMaintain armed for the next pass

    def _run(self, fn, *args):
        """``fn(*args)`` on the loop — the protocol's callbacks need it
        running — then the loop drains what is ready."""

        async def call():
            result = fn(*args)
            await asyncio.sleep(0)
            return result

        return self.loop.run_until_complete(call())

    def _request(self, entry, request):
        """One text message on an open, unchoked connection; the JSON of
        the frame that answers it."""
        conn, transport, _choked = entry
        return self.loop.run_until_complete(_ws_request(conn, transport, request))

    # -- rules -------------------------------------------------------------

    @initialize()
    def first_subscriber(self) -> None:
        self.connect()
        self._subscribe(self.conns[0], 300.0, True, "naive")

    @precondition(lambda self: len(self.conns) < 3)
    @rule()
    def connect(self) -> None:
        conn, transport = self._run(_connect, self.service, self.server)
        self._run(conn.data_received, _ws_upgrade())
        self.conns.append([conn, transport, None])

    @precondition(lambda self: any(e[2] is None for e in self.conns))
    @rule(
        data=st.data(),
        half_width=st.sampled_from([150.0, 300.0]),
        past_the_stream=st.booleans(),
        method=st.sampled_from(["naive", "model-cover"]),
    )
    def subscribe(self, data, half_width, past_the_stream, method) -> None:
        entry = data.draw(st.sampled_from([e for e in self.conns if e[2] is None]))
        self._subscribe(entry, half_width, past_the_stream, method)

    def _subscribe(self, entry, half_width, past_the_stream, method) -> None:
        """Past the stream's end every query maps to the open window, so
        every ingest changes the answer; just past the head, only the
        ingests that fill its windows do."""
        t = self.tuples
        xm, ym = float(np.mean(t.x)), float(np.mean(t.y))
        t_start = float(t.t[-1 if past_the_stream else self.rows - 1]) + 600.0
        reply = self._request(
            entry,
            {
                "mode": "subscribe",
                "route": [[xm - half_width, ym - half_width], [xm + half_width, ym + half_width]],
                "t_start": t_start,
                "interval_s": 600.0,
                "updates": 8,
                "method": method,
            },
        )
        assert reply["mode"] == "subscribed" and reply["seq"] == 0, reply
        self.owned[reply["subscription"]] = (entry[0], reply["changes"])
        self.transports[reply["subscription"]] = entry[1]

    def _unchoked(self):
        """sub id -> the entry of its connection, where that is unchoked."""
        entries = {id(e[0]): e for e in self.conns if e[2] is None}
        return {i: entries[id(c)] for i, (c, _) in self.owned.items() if id(c) in entries}

    @precondition(lambda self: self._unchoked())
    @rule(data=st.data())
    def unsubscribe(self, data) -> None:
        unchoked = self._unchoked()
        sub_id = data.draw(st.sampled_from(sorted(unchoked)))
        entry = unchoked[sub_id]
        reply = self._request(entry, {"mode": "unsubscribe", "subscription": sub_id})
        assert reply == {"mode": "unsubscribed", "subscription": sub_id}
        del self.owned[sub_id]
        self.gone[sub_id] = (entry[1], len(_server_frames(entry[1].out)))

    @precondition(lambda self: self.rows < len(self.tuples))
    @rule(batches=st.integers(1, 3), wait=st.booleans())
    def ingest(self, batches, wait) -> None:
        """``batches`` tail batches one after another; with ``wait``,
        their pushes are in (or held) before the next step."""
        for _ in range(batches):
            stop = min(self.rows + _TAIL_ROWS, len(self.tuples))
            self._run(self.service.ingest, self.tuples.slice(self.rows, stop))
            self.rows = stop
            if self.held is not None and self.owned:
                # This batch's pass, or the one owed after a pass in
                # flight, is held: the next batches arrive during it.
                held, server = self.held, self.server
                self.loop.run_until_complete(
                    _until(lambda: held.entered.is_set() or not server._maintaining)
                )
        if wait:
            self.quiesce()

    @precondition(lambda self: self._unchoked())
    @rule(data=st.data())
    def choke(self, data) -> None:
        """Close the write gate of a connection that owns a subscription."""
        _sub_id, entry = data.draw(st.sampled_from(sorted(self._unchoked().items())))
        self._run(entry[0].pause_writing)
        entry[2] = len(entry[1].out)

    @precondition(lambda self: any(e[2] is not None for e in self.conns))
    @rule(data=st.data())
    def resume(self, data) -> None:
        entry = data.draw(st.sampled_from([e for e in self.conns if e[2] is not None]))
        entry[2] = None
        self._run(entry[0].resume_writing)

    @precondition(lambda self: self.conns)
    @rule(data=st.data())
    def close(self, data) -> None:
        entry = data.draw(st.sampled_from(self.conns))
        conn, transport, _choked = entry
        self.conns.remove(entry)
        transport.close()
        self._run(conn.connection_lost, None)
        for sub_id in [i for i, (c, _) in self.owned.items() if c is conn]:
            del self.owned[sub_id]
            self.gone[sub_id] = (transport, len(_server_frames(transport.out)))

    @precondition(lambda self: self.held is None)
    @rule()
    def hold_pass(self) -> None:
        """The next pass stops on its worker after it maintains, before
        it drains, until :meth:`release_pass`."""
        self.held = _HeldMaintain(self.registry)

    @precondition(lambda self: self.held is not None)
    @rule()
    def release_pass(self) -> None:
        self.held.release()
        self.held = None

    def quiesce(self) -> None:
        """Release a held pass, then wait out the passes and
        unregistrations, gates as they are."""
        if self.held is not None:
            self.release_pass()
        server, registry = self.server, self.registry

        async def quiet():
            while True:
                await _until(lambda: not server._maintaining and len(registry) == len(self.owned))
                await asyncio.sleep(0.005)  # a wake-up still on its way to the loop
                if not server._maintaining:
                    return

        self.loop.run_until_complete(quiet())
        assert self.errors == []

    @rule()
    def settle(self) -> None:
        """Open every gate, quiesce, and check every subscription's
        pushed stream."""
        for entry in self.conns:
            if entry[2] is not None:
                entry[2] = None
                self._run(entry[0].resume_writing)
        self.quiesce()
        registry = self.registry
        transports = {id(e[0]): e[1] for e in self.conns}
        for sub_id, (conn, initial) in self.owned.items():
            seqs, values, support = self._replay(transports[id(conn)], sub_id, initial)
            assert seqs == list(range(1, len(seqs) + 1)), (sub_id, seqs)
            sub = registry.subscription(sub_id)
            ref_v, ref_s = registry.reference_answers(sub.batch, sub.method)
            assert np.array_equal(values, ref_v, equal_nan=True), sub_id
            assert np.array_equal(support, ref_s), sub_id
        for transport in set(self.transports.values()):
            for _op, data in _server_frames(transport.out):
                frame = json.loads(data)
                if frame.get("mode") == "update":
                    assert self.transports[frame["subscription"]] is transport, frame
        for sub_id, (transport, at) in self.gone.items():
            seqs = [update["seq"] for update in self._updates(transport, sub_id)]
            assert seqs == list(range(1, len(seqs) + 1)), (sub_id, seqs)
            later = [
                json.loads(data) for _op, data in _server_frames(transport.out)[at:]
            ]
            assert not any(f.get("subscription") == sub_id for f in later), sub_id

    @invariant()
    def a_closed_gate_holds_the_pushes(self) -> None:
        for _conn, transport, written in self.conns:
            assert written is None or len(transport.out) == written

    @staticmethod
    def _updates(transport: _RecordingTransport, sub_id: int):
        frames = (json.loads(data) for _op, data in _server_frames(transport.out))
        return [f for f in frames if f.get("mode") == "update" and f["subscription"] == sub_id]

    def _replay(self, transport: _RecordingTransport, sub_id: int, initial):
        """``(seqs, values, support)``: the pushed updates of one
        subscription applied to its initial answer."""
        values = np.array([np.nan if c["value"] is None else c["value"] for c in initial])
        support = np.array([c["support"] for c in initial], dtype=np.int64)
        updates = self._updates(transport, sub_id)
        for change in (c for update in updates for c in update["changes"]):
            values[change["i"]] = np.nan if change["value"] is None else change["value"]
            support[change["i"]] = change["support"]
        return [update["seq"] for update in updates], values, support

    def teardown(self) -> None:
        try:
            self.settle()
        finally:
            for conn, transport, _choked in self.conns:
                transport.close()
                self._run(conn.connection_lost, None)
            self.loop.run_until_complete(self.server.close())
            self.loop.close()


PushMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestPushMachine = PushMachine.TestCase
