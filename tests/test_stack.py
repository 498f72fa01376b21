"""Tests for repro.stack — the one place the serving stack is put together.

Every valid :class:`StackConfig` over the 1-day stream — {resident,
``data_dir``} x {in-process, ``processes=2``} x {``naive``,
``model-cover``} x {subscriptions off, on} x {1, 4 shards}, 32 stacks —
is served over a socket and answers a fixed set of point, route, heatmap
and model requests with the bytes of the plain stack of its shard count
and method, ``build(StackConfig(shards=s, method=m))``.  A subscribed
stack delivers the plain subscribed stack's updates after a tail ingest;
a durable one, rebuilt over its directory, recovers every row, ingests
none and answers the same again.  Every stack, once closed, leaves no
descriptor, thread or shared-memory export block behind.
"""

import gc
import http.client
import json
import os
import warnings

import pytest

from repro.server.async_server import BackgroundServer
from repro.stack import StackConfig, build

from leaks import assert_released, open_resources

SHARDS = (1, 4)
METHODS = ("naive", "model-cover")
ROUTE = [[1000.0, 1000.0], [3000.0, 2200.0]]


@pytest.fixture(scope="module")
def stream(small_dataset):
    """The covered box, the rows every stack is built over, and the
    tail a subscribed stack ingests after."""
    tuples = small_dataset.tuples
    cut = len(tuples) * 9 // 10
    return (
        small_dataset.covered_bbox(),
        tuples.slice(0, cut),
        tuples.slice(cut, len(tuples)),
    )


@pytest.fixture(scope="module")
def requests(stream):
    _bbox, head, _tail = stream
    out = []
    for t in (float(head.t[len(head) // 2]), float(head.t[-1])):
        out += [
            ("point", {"t": t, "x": 2000.0, "y": 1500.0}),
            ("continuous", {"route": ROUTE, "t_start": t - 1800.0}),
            ("heatmap", {"t": t, "bounds": [0, 0, 6000, 4000], "nx": 8, "ny": 6}),
            ("model", {"t": t, "x": 2000.0, "y": 1500.0}),
        ]
    return out


def _answers(stack, requests):
    """``(status, body bytes)`` per request, over a socket."""
    out = []
    with BackgroundServer(stack.service) as served:
        for mode, params in requests:
            conn = http.client.HTTPConnection("127.0.0.1", served.port, timeout=30)
            try:
                conn.request("POST", f"/query/{mode}", json.dumps(params))
                response = conn.getresponse()
                out.append((response.status, response.read()))
            finally:
                conn.close()
    return out


def _updates(stack, tail):
    """One standing route's initial answer and its updates after the
    tail is ingested, epochs left out (they count ingests, which a
    recovered store made before it opened)."""
    registry = stack.service.subscriptions
    sub = registry.subscribe(ROUTE, float(tail.t[0]) - 900.0, count=30)
    stack.service.ingest(tail)
    return [
        {k: v for k, v in update.to_json().items() if k != "epoch"}
        for update in [sub.initial, *registry.poll(sub.id)]
    ]


@pytest.fixture(scope="module")
def plain(stream, requests):
    """Per (shards, method): the plain stack's answers, and the plain
    subscribed stack's updates."""
    bbox, head, tail = stream
    out = {}
    for shards in SHARDS:
        for method in METHODS:
            with build(StackConfig(shards=shards, method=method), bbox, head) as stack:
                answers = _answers(stack, requests)
            config = StackConfig(shards=shards, method=method, subscriptions=True)
            with build(config, bbox, head) as stack:
                out[shards, method] = answers, _updates(stack, tail)
    return out


def _export_blocks() -> set:
    return {name for name in os.listdir("/dev/shm") if name.startswith("emshm_")}


def test_the_plain_stacks_answer_every_request(plain, requests):
    for answers, updates in plain.values():
        assert [status for status, _ in answers] == [200] * len(requests)
        assert updates[0]["kind"] == "initial"
        assert [u["kind"] for u in updates[1:]] == ["delta"]


def test_naive_answers_are_the_same_over_1_and_4_shards(plain, requests):
    """The exact answer does not depend on the layout; a model blob is
    its owner slice's cover, so it does."""
    keep = [i for i, (mode, _) in enumerate(requests) if mode != "model"]
    one, four = (plain[shards, "naive"][0] for shards in SHARDS)
    assert [one[i] for i in keep] == [four[i] for i in keep]
    assert one != four


@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("subscriptions", [False, True], ids=["unsubscribed", "subscribed"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("processes", [None, 2], ids=["in-process", "pool"])
@pytest.mark.parametrize("durable", [False, True], ids=["resident", "durable"])
def test_every_config_answers_as_the_plain_stack(
    durable, processes, method, subscriptions, shards, stream, requests, plain, tmp_path
):
    bbox, head, tail = stream
    if processes is not None:
        # The resource tracker's pipe lives for the session.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    before, blocks = open_resources(), _export_blocks()
    config = StackConfig(
        shards=shards,
        method=method,
        processes=processes,
        data_dir=tmp_path / "tier" if durable else None,
        subscriptions=subscriptions,
    )
    answers, updates = plain[shards, method]
    stack = build(config, bbox, head)
    try:
        assert stack.recovered == 0
        assert _answers(stack, requests) == answers
        # Only exact plans go to the pool, and only a resident store
        # exports the shard prefixes they run over.
        pooled = processes is not None and not durable and method == "naive"
        assert bool(_export_blocks() - blocks) == pooled
        if durable:
            stack.close()
            stack = build(config, bbox, head)
            assert stack.recovered == stack.router.global_count() == len(head)
            assert _answers(stack, requests) == answers
        if subscriptions:
            assert _updates(stack, tail) == updates
        else:
            assert stack.service.subscriptions is None
    finally:
        stack.close()
    del stack
    assert_released(before)
    assert _export_blocks() <= blocks


@pytest.mark.usefixtures("leak_check")
class TestConfig:
    def test_seven_fields_each_a_serve_flag(self):
        from dataclasses import fields

        from repro.cli import build_parser

        names = [f.name for f in fields(StackConfig)]
        assert names == [
            "shards", "h", "method", "processes",
            "data_dir", "memory_windows", "subscriptions",
        ]  # fmt: skip
        args = build_parser().parse_args(["serve", "--port", "1"])
        assert StackConfig() == StackConfig(**{n: getattr(args, n) for n in names})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"memory_windows": 4}, "--memory-windows needs --data-dir"),
            ({"method": "vptree"}, "unknown method 'vptree'"),
        ],
    )
    def test_an_invalid_combination_raises_before_anything_is_built(
        self, tmp_path, fields, message
    ):
        tier = tmp_path / "tier"
        with pytest.raises(ValueError, match=message):
            StackConfig(data_dir=None if "memory_windows" in fields else tier, **fields)
        assert not tier.exists()

    def test_a_bad_range_closes_the_durable_router_it_opened(
        self, small_dataset, tmp_path
    ):
        """The engine refuses ``processes=0`` after the router opened
        its directory: ``build`` closes the router before it raises,
        rather than leaving its files to the garbage collector."""
        config = StackConfig(processes=0, data_dir=tmp_path / "tier")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match="processes must be at least 1"):
                build(config, small_dataset.covered_bbox(), small_dataset.tuples)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
