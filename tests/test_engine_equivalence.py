"""Cross-processor equivalence oracle (``docs/testing.md``).

One randomised workload, every execution path, one chain of asserts:

* ``naive`` scalar (the oracle) == ``naive`` batched == every index kind
  — same answered flags and supports, values within 1e-12 relative
  (float summation order);
* the engine over one shard == the same answers (1e-12 relative) for
  exact methods, and its ``model-cover`` point, route and grid answers
  == the window's ``ModelCoverProcessor(fit_adkmn(window).cover)``
  answers byte for byte — also while ingest grows the store;
* sharded at **1 shard == N shards, byte-identical** — the partition
  must be invisible down to the last bit, enforced with exact array
  equality, for every exact method;
* the sharded engine's **model-cover fallback** (owning shard has no
  tuples in the window) == the exact scatter-gather answer, byte for
  byte;
* the paper protocol (``EngineQueryService.handle_many`` over a
  one-shard engine) == covers built from core functions (``window`` ->
  ``fit_adkmn`` with ``t_n`` = last time + horizon): every value and
  every model-request blob, byte for byte.

Workloads are generated by hypothesis: random tuple streams (positions,
strictly increasing times, values) and random query sets spanning the
data region, its empty surroundings, and the boundary.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import threading

from repro.core.adkmn import fit_adkmn
from repro.data.tuples import TupleBatch
from repro.data.windows import window, windows_for_times
from repro.geo.coords import BoundingBox
from repro.geo.region import RegionGrid
from repro.network.messages import ModelCoverResponse, ModelRequest, QueryRequest
from repro.query.base import QueryBatch, process_batch_scalar
from repro.query.executor import group_queries_by_window, scatter_results
from repro.query.indexed import IndexedProcessor, available_index_kinds
from repro.query.modelcover import ModelCoverProcessor
from repro.query.naive import NaiveProcessor
from repro.query.sharded import ShardedQueryEngine
from repro.storage.shards import ShardRouter

from one_shard import grow, one_shard_engine, protocol_service
from reference_gather import merge_hit_partials, scan_hits

RADIUS_M = 900.0
H = 32  # small windows: workloads span several, including a short tail
DATA_BOUNDS = BoundingBox(0.0, 0.0, 6000.0, 4000.0)

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_streams = st.integers(min_value=1, max_value=120)
_query_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),   # time frac
        st.floats(min_value=-9000.0, max_value=15_000.0, allow_nan=False),
        st.floats(min_value=-7000.0, max_value=11_000.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)
_seeds = st.integers(min_value=0, max_value=2**31 - 1)


def make_stream(rng: np.random.Generator, n: int) -> TupleBatch:
    t = np.cumsum(rng.uniform(1.0, 60.0, n))
    return TupleBatch(
        t,
        rng.uniform(DATA_BOUNDS.min_x, DATA_BOUNDS.max_x, n),
        rng.uniform(DATA_BOUNDS.min_y, DATA_BOUNDS.max_y, n),
        rng.uniform(350.0, 600.0, n),
    )


def make_queries(stream: TupleBatch, specs) -> QueryBatch:
    t0, t1 = float(stream.t[0]), float(stream.t[-1])
    return QueryBatch(
        np.array([t0 + frac * (t1 - t0) for frac, _, _ in specs]),
        np.array([x for _, x, _ in specs]),
        np.array([y for _, _, y in specs]),
    )


def sharded(
    stream: TupleBatch,
    n_shards: int,
    n_ingest_batches: int = 3,
):
    grid = RegionGrid.for_shard_count(DATA_BOUNDS, n_shards)
    router = ShardRouter(grid, h=H)
    step = max(1, len(stream) // n_ingest_batches)
    for start in range(0, len(stream), step):
        router.ingest(stream.slice(start, min(start + step, len(stream))))
    return ShardedQueryEngine(router, radius_m=RADIUS_M)


def assert_same_answers(a, b, exact: bool) -> None:
    """Same answered flags and supports; values byte for byte when
    ``exact``, else within 1e-12 relative (float summation order)."""
    np.testing.assert_array_equal(a.answered, b.answered)
    np.testing.assert_array_equal(a.support, b.support)
    if exact:
        np.testing.assert_array_equal(a.values, b.values)
    else:
        np.testing.assert_allclose(
            a.values, b.values, rtol=1e-12, atol=0.0, equal_nan=True
        )


def window_processor(stream: TupleBatch, method: str, c: int):
    """A ``method`` processor built directly over window ``c``."""
    sub = window(stream, c, H)
    if method == "naive":
        return NaiveProcessor(sub, RADIUS_M)
    if method == "model-cover":
        return ModelCoverProcessor(fit_adkmn(sub, window_c=c).cover)
    return IndexedProcessor(sub, kind=method, radius_m=RADIUS_M)


def window_oracle(stream: TupleBatch, queries: QueryBatch, method: str, scalar: bool):
    """Each query answered by its window's directly built processor —
    one ``process`` per query (``scalar``) or one ``process_batch`` per
    window — in stream order."""
    groups = group_queries_by_window(
        queries, None, windows_for_times=lambda ts: windows_for_times(stream.t, ts, H)
    )
    results = []
    for group in groups:
        proc = window_processor(stream, method, group.window_c)
        if scalar:
            results.append(process_batch_scalar(proc, group.queries))
        else:
            results.append(proc.process_batch(group.queries))
    return scatter_results(groups, results, len(queries))


class TestProcessorChain:
    """naive scalar == naive batched == indexed == sharded(1) == sharded(N)."""

    @_SETTINGS
    @given(n=_streams, specs=_query_specs, seed=_seeds)
    def test_full_chain(self, n, specs, seed):
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, n)
        queries = make_queries(stream, specs)

        # The oracle works per window; restrict to single-window queries.
        windows = windows_for_times(stream.t, queries.t, H)
        first = np.flatnonzero(windows == windows[0])
        queries = queries.take(first)

        naive = window_processor(stream, "naive", int(windows[0]))
        oracle = process_batch_scalar(naive, queries)
        batched = naive.process_batch(queries)
        assert_same_answers(oracle, batched, exact=False)
        for kind in available_index_kinds():
            proc = window_processor(stream, kind, int(windows[0]))
            assert_same_answers(oracle, proc.process_batch(queries), exact=False)

        one = sharded(stream, 1).continuous_query_batch(queries, method="naive")
        assert_same_answers(oracle, one, exact=False)
        for n_shards in (4, 6):
            many = sharded(stream, n_shards).continuous_query_batch(
                queries, method="naive"
            )
            assert_same_answers(one, many, exact=True)  # byte-identical

    @_SETTINGS
    @given(n=_streams, specs=_query_specs, seed=_seeds)
    def test_sharded_methods_agree_byte_for_byte(self, n, specs, seed):
        """All exact sharded methods produce one answer, per shard count."""
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, n)
        queries = make_queries(stream, specs)
        reference = None
        for n_shards in (1, 4):
            # The raw-data methods' answers must be partition- and
            # method-independent down to the byte.
            engine = sharded(stream, n_shards)
            for method in ("naive", "kdtree", "vptree"):
                result = engine.continuous_query_batch(queries, method=method)
                if reference is None:
                    reference = result
                else:
                    assert_same_answers(reference, result, exact=True)

    @_SETTINGS
    @given(n=_streams, specs=_query_specs, seed=_seeds)
    def test_multi_window_streams_match_scalar_oracle(self, n, specs, seed):
        """Queries spanning several windows: sharded == the per-window
        naive scalar oracle."""
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, n)
        queries = make_queries(stream, specs)
        oracle = window_oracle(stream, queries, "naive", scalar=True)
        one = sharded(stream, 1).continuous_query_batch(queries, method="naive")
        four = sharded(stream, 4).continuous_query_batch(queries, method="naive")
        assert_same_answers(oracle, one, exact=False)
        assert_same_answers(one, four, exact=True)


class TestOneShardOracle:
    """The engine over one shard against processors built directly over
    each window: ``model-cover`` byte for byte (point, route and grid),
    exact methods within 1e-12 of the naive scalar oracle."""

    EXACT = ("naive", "kdtree", "vptree")

    @_SETTINGS
    @given(n=_streams, specs=_query_specs, seed=_seeds)
    def test_model_cover_point_route_and_grid(self, n, specs, seed):
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, n)
        queries = make_queries(stream, specs)
        engine = one_shard_engine(stream, h=H, radius_m=RADIUS_M, max_workers=1)
        route = engine.continuous_query_batch(queries, method="model-cover")
        oracle = window_oracle(stream, queries, "model-cover", scalar=False)
        assert_same_answers(route, oracle, exact=True)
        for i in range(min(len(queries), 5)):
            t, x, y = (float(v[i]) for v in (queries.t, queries.x, queries.y))
            point = engine.point_query(t, x, y, method="model-cover")
            assert np.float64(point.value).tobytes() == oracle.values[i].tobytes()
        t = float(queries.t[0])
        grid = engine.heatmap_grid(t, DATA_BOUNDS, nx=7, ny=5, method="model-cover")
        probes = QueryBatch.from_grid(
            t, DATA_BOUNDS.min_x, DATA_BOUNDS.min_y, DATA_BOUNDS.width,
            DATA_BOUNDS.height, 7, 5,
        )
        expected = window_oracle(stream, probes, "model-cover", scalar=False)
        assert grid.tobytes() == expected.grid(5, 7).tobytes()

    @_SETTINGS
    @given(n=_streams, specs=_query_specs, seed=_seeds)
    def test_exact_methods_match_naive_scalar_oracle(self, n, specs, seed):
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, n)
        queries = make_queries(stream, specs)
        engine = one_shard_engine(stream, h=H, radius_m=RADIUS_M, max_workers=1)
        oracle = window_oracle(stream, queries, "naive", scalar=True)
        for method in self.EXACT:
            result = engine.continuous_query_batch(queries, method=method)
            assert_same_answers(result, oracle, exact=False)

    def test_oracle_holds_under_incremental_ingest(self):
        """After every ingest into a growing store, the engine answers
        as the oracle over the rows it holds: grown windows' covers and
        indexes are rebuilt, never served stale."""
        rng = np.random.default_rng(99)
        stream = make_stream(rng, 6 * H)
        engine = one_shard_engine(
            stream.slice(0, H), h=H, radius_m=RADIUS_M, max_workers=1
        )
        for stop in range(H, 6 * H + 1, H // 2):
            grow(engine, stream, stop)
            held = stream.slice(0, stop)
            queries = QueryBatch(
                np.linspace(float(held.t[0]), float(held.t[-1]), 17),
                rng.uniform(-500.0, 6500.0, 17),
                rng.uniform(-500.0, 4500.0, 17),
            )
            assert_same_answers(
                engine.continuous_query_batch(queries, method="model-cover"),
                window_oracle(held, queries, "model-cover", scalar=False),
                exact=True,
            )
            oracle = window_oracle(held, queries, "naive", scalar=True)
            for method in self.EXACT:
                result = engine.continuous_query_batch(queries, method=method)
                assert_same_answers(result, oracle, exact=False)


class TestModelCoverFallback:
    def test_empty_region_falls_back_to_exact(self):
        """Queries owned by a data-less region get the exact average —
        byte-identical to the sharded naive answer."""
        rng = np.random.default_rng(5)
        n = 64
        # All data in the west half; queries in the east half own an
        # empty shard under a 2x1 grid.
        t = np.cumsum(rng.uniform(1.0, 60.0, n))
        stream = TupleBatch(
            t,
            rng.uniform(0.0, 2500.0, n),
            rng.uniform(0.0, 4000.0, n),
            rng.uniform(350.0, 600.0, n),
        )
        grid = RegionGrid(DATA_BOUNDS, nx=2, ny=1)
        router = ShardRouter(grid, h=H)
        router.ingest(stream)
        engine = ShardedQueryEngine(router, radius_m=3500.0)
        t_mid = float(stream.t[-1])
        queries = QueryBatch(
            np.full(5, t_mid),
            np.linspace(3100.0, 5500.0, 5),
            np.full(5, 2000.0),
        )
        assert all(
            int(s) == 1 for s in grid.shards_of(queries.x, queries.y)
        )
        via_cover = engine.continuous_query_batch(queries, method="model-cover")
        via_exact = engine.continuous_query_batch(queries, method="naive")
        assert_same_answers(via_cover, via_exact, exact=True)

    def test_populated_region_serves_model_answers(self, small_batch):
        """With data in the owning region, model-cover answers are model
        evaluations: support == 1 and every query answered."""
        engine = sharded(small_batch.slice(0, 200), 4)
        t_mid = float(small_batch.t[100])
        queries = QueryBatch(
            np.full(4, t_mid),
            np.array([1000.0, 2000.0, 3000.0, 4000.0]),
            np.array([1000.0, 1500.0, 2000.0, 2500.0]),
        )
        result = engine.continuous_query_batch(queries, method="model-cover")
        owners = engine.router.grid.shards_of(queries.x, queries.y)
        windows = engine.router.windows_for_times(queries.t)
        populated = np.array(
            [
                len(engine.router.shard_window(int(s), int(c))) > 0
                for s, c in zip(owners, windows)
            ]
        )
        assert np.all(result.answered[populated])
        assert np.all(result.support[populated] == 1)


# -- golden oracle: pipeline == pre-refactor execution ----------------------
#
# The plan-pipeline refactor replaced the orchestration of every query
# path.  These oracles freeze the *pre-refactor* computations — composed
# from the still-public primitives exactly as the old sharded engine and
# server code composed them — and assert the pipeline's answers are
# byte-identical, across shard counts and while ingest grows the store.


def legacy_sharded_exact(router: ShardRouter, queries: QueryBatch, radius_m):
    """The pre-pipeline sharded exact scatter-gather, verbatim minus the
    disk-range pruning (pruned shards only ever contribute empty
    partials, so the hit multiset — and every merged byte — is
    identical)."""
    windows = router.windows_for_times(queries.t)
    partials = []
    for c in np.unique(windows):
        positions = np.flatnonzero(windows == c)
        window_queries = queries.take(positions)
        for s in range(router.n_shards):
            _stamp, sub, gids = router.snapshot_window(s, int(c))
            if not len(sub):
                continue
            probe, gid, vals = scan_hits(sub, gids, window_queries, radius_m)
            partials.append((positions[probe], gid, vals))
    return merge_hit_partials(
        len(queries), router.global_count(), partials, queries
    )


HORIZON_S = 4.0 * 3600.0


def reference_cover(stream: TupleBatch, c: int, horizon_s: float = HORIZON_S):
    """The served cover of window ``c`` built from core functions alone:
    ``window`` -> ``fit_adkmn`` stamped ``t_n`` = the window's last time
    + the validity horizon (what the server answers model requests with)."""
    w = window(stream, c, H)
    return fit_adkmn(
        w, valid_until=float(w.t[-1]) + horizon_s, window_c=c
    ).cover


def reference_protocol(stream: TupleBatch, requests):
    """The paper protocol's answers over ``stream``: per request, the
    value a ``ModelCoverProcessor`` over its window's reference cover
    gives (``NaN`` for a non-finite field), or that cover's blob."""
    finite = [
        i for i, r in enumerate(requests)
        if np.isfinite(r.t) and np.isfinite(r.x) and np.isfinite(r.y)
    ]
    windows = dict(
        zip(finite, windows_for_times(stream.t, [requests[i].t for i in finite], H))
    )
    covers = {}
    out = []
    for i, r in enumerate(requests):
        if i not in windows:
            out.append(np.nan)
            continue
        c = int(windows[i])
        if c not in covers:
            covers[c] = reference_cover(stream, c)
        if isinstance(r, ModelRequest):
            out.append(covers[c].to_blob())
        else:
            res = ModelCoverProcessor(covers[c]).process_batch(
                QueryBatch(np.array([r.t]), np.array([r.x]), np.array([r.y]))
            )
            out.append(float(res.values[0]) if res.answered[0] else np.nan)
    return out


def protocol_fingerprints(answers):
    """Byte identity per answer: a blob, or a value's float64 bytes."""
    return [
        a if isinstance(a, bytes) else np.float64(a).tobytes() for a in answers
    ]


def served_fingerprints(responses):
    return protocol_fingerprints(
        [r.blob if isinstance(r, ModelCoverResponse) else r.value for r in responses]
    )


_request_specs = st.lists(
    st.tuples(
        st.floats(min_value=-0.1, max_value=1.1, allow_nan=False),  # time frac
        st.floats(min_value=-9000.0, max_value=15_000.0, allow_nan=False),
        st.floats(min_value=-7000.0, max_value=11_000.0, allow_nan=False),
        st.booleans(),  # model request?
    ),
    min_size=1,
    max_size=25,
)


def make_requests(stream: TupleBatch, specs):
    t0, t1 = float(stream.t[0]), float(stream.t[-1])
    return [
        (ModelRequest if model else QueryRequest)(
            t=t0 + frac * (t1 - t0), x=x, y=y
        )
        for frac, x, y, model in specs
    ]


class TestProtocolOracle:
    """The server's paper protocol == covers built from core functions,
    byte for byte: every ``ValueResponse.value`` and every
    ``ModelCoverResponse.blob``, batched and one by one, and while
    ingest grows the store."""

    @_SETTINGS
    @given(n=_streams, specs=_request_specs, seed=_seeds)
    def test_values_and_blobs_match_core_reference(self, n, specs, seed):
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, n)
        requests = make_requests(stream, specs)
        server = protocol_service(h=H)
        server.ingest(stream)
        want = protocol_fingerprints(reference_protocol(stream, requests))
        assert served_fingerprints(server.handle_many(requests)) == want
        assert served_fingerprints([server.handle(r) for r in requests]) == want

    @_SETTINGS
    @given(n=st.integers(min_value=2, max_value=120), specs=_request_specs, seed=_seeds)
    def test_matches_reference_at_every_ingest_prefix(self, n, specs, seed):
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, n)
        server = protocol_service(h=H)
        cut = int(rng.integers(1, n))
        for lo, hi in ((0, cut), (cut, n)):
            server.ingest(stream.slice(lo, hi))
            prefix = stream.slice(0, hi)
            requests = make_requests(prefix, specs)
            want = protocol_fingerprints(reference_protocol(prefix, requests))
            assert served_fingerprints(server.handle_many(requests)) == want


class TestPipelineGoldenOracle:
    """Pipeline answers == frozen pre-refactor answers, byte for byte."""

    @_SETTINGS
    @given(n=_streams, specs=_query_specs, seed=_seeds)
    def test_sharded_exact_matches_legacy_across_shard_counts(self, n, specs, seed):
        rng = np.random.default_rng(seed)
        stream = make_stream(rng, n)
        queries = make_queries(stream, specs)
        for n_shards in (1, 4, 6):
            engine = sharded(stream, n_shards)
            via_pipeline = engine.continuous_query_batch(queries, method="naive")
            legacy = legacy_sharded_exact(engine.router, queries, RADIUS_M)
            assert_same_answers(via_pipeline, legacy, exact=True)

    def test_sharded_matches_legacy_under_concurrent_ingest(self):
        """A free-running writer ingests while readers query through the
        pipeline; every concurrent answer must stay well-formed, and the
        quiesced store must answer byte-identically to the legacy path."""
        rng = np.random.default_rng(7)
        stream = make_stream(rng, 8 * H)
        router = ShardRouter(RegionGrid.for_shard_count(DATA_BOUNDS, 4), h=H)
        router.ingest(stream.slice(0, H))
        engine = ShardedQueryEngine(router, radius_m=RADIUS_M)
        queries = QueryBatch(
            np.full(11, float(stream.t[H - 1])),
            np.linspace(200.0, 5800.0, 11),
            np.full(11, 2000.0),
        )
        errors = []
        done = threading.Event()

        def writer():
            try:
                for start in range(H, len(stream), H // 2):
                    router.ingest(stream.slice(start, min(start + H // 2, len(stream))))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            while not done.is_set():
                live = engine.continuous_query_batch(queries, method="naive")
                assert len(live) == len(queries)
        finally:
            thread.join()
        assert not errors
        quiesced = engine.continuous_query_batch(queries, method="naive")
        legacy = legacy_sharded_exact(router, queries, RADIUS_M)
        assert_same_answers(quiesced, legacy, exact=True)

    def test_server_paths_match_reference_and_each_other(self):
        """Scalar handle, batched handle_many and a pool-fanned batch all
        serve the reference cover evaluations byte for byte."""
        from repro.query.pipeline.executor import MIN_PARALLEL_QUERIES

        rng = np.random.default_rng(17)
        stream = make_stream(rng, 4 * H)
        server = protocol_service(h=H, max_workers=3)
        for start in range(0, len(stream), H):
            server.ingest(stream.slice(start, start + H))
        requests = [
            QueryRequest(
                t=float(stream.t[min((i * 37) % len(stream), len(stream) - 1)]),
                x=float(rng.uniform(0.0, 6000.0)),
                y=float(rng.uniform(0.0, 4000.0)),
            )
            for i in range(2 * MIN_PARALLEL_QUERIES)
        ]
        want = protocol_fingerprints(reference_protocol(stream, requests))
        try:
            assert served_fingerprints(server.handle_many(requests)) == want
            assert served_fingerprints([server.handle(r) for r in requests[:40]]) == (
                want[:40]
            )
        finally:
            server.engine.close()
        blob = server.handle(
            ModelRequest(t=float(stream.t[-1]), x=100.0, y=100.0)
        ).blob
        assert blob == reference_cover(stream, (len(stream) - 1) // H).to_blob()
