"""Command-line interface for the EnviroMeter reproduction.

Subcommands:

* ``figures``  — regenerate the paper's evaluation tables (E1–E4);
* ``dataset``  — generate the synthetic lausanne-data and write it to CSV;
* ``heatmap``  — render the web UI's heatmap for a given hour to a PPM file;
* ``serve``    — serve a generated stream over HTTP/WebSocket: the web
  modes and the paper's model request (``--port`` is required);
* ``recover``  — recover a durable tiered data directory (WAL replay plus
  completion of any crash-interrupted seal) and report what survived;
* ``compact``  — tidy a tiered data directory (checkpoint the WAL, drop
  orphan segments, optionally verify every checksum);
* ``explain``  — print the execution plan the pipeline built for a query
  workload (ops, method per window/shard, observed timings, cache and
  pruning counters);
* ``shards``   — per-shard occupancy/load table (rows, windows, ingest
  and scan counters, EWMA load, skew coefficients), optionally after
  letting the adaptive rebalancer split/merge.

Examples::

    python -m repro.cli figures --quick
    python -m repro.cli dataset --days 2 --out lausanne.csv
    python -m repro.cli heatmap --hour 8.5 --out city.ppm
    python -m repro.cli heatmap --hour 8.5 --shards 4
    python -m repro.cli serve --days 1 --port 8765 --method model-cover
    python -m repro.cli serve --days 1 --shards 4 --port 8765 --processes 4
    python -m repro.cli explain --hour 8.5 --method model-cover
    python -m repro.cli explain --shards 4 --queries 300 --method naive
    python -m repro.cli shards --shards 6 --focus 0.25 --rebalance 4
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.eval.experiments import (
        experiment_dataset,
        run_fig6a,
        run_fig6b,
        run_fig7a,
        run_fig7b,
    )
    from repro.eval.report import (
        format_fig6a,
        format_fig6b,
        format_fig7a,
        format_fig7b,
    )

    if args.quick:
        from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset

        ds = generate_lausanne_dataset(LausanneConfig(days=2))
        n_queries, mem_h, mem_runs = 500, 2000, 3
    else:
        ds = experiment_dataset()
        n_queries, mem_h, mem_runs = 5000, 5000, 10

    rows6a = run_fig6a(ds, n_queries=n_queries)
    print(format_fig6a(rows6a), end="\n\n")
    print(format_fig6b(run_fig6b(ds, n_queries=n_queries)), end="\n\n")
    print(format_fig7a(run_fig7a(ds, h=mem_h, runs=mem_runs)), end="\n\n")
    rows7b = run_fig7b(ds)
    print(format_fig7b(rows7b))
    if args.charts:
        from repro.eval.plots import fig6a_chart, fig7b_chart

        print("\nFigure 6(a) as a chart:\n" + fig6a_chart(rows6a))
        print("\nFigure 7(b) as charts:\n" + fig7b_chart(rows7b))
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.data.io import write_tuples_csv
    from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset

    cfg = LausanneConfig(days=args.days, seed=args.seed, target_tuples=args.target)
    ds = generate_lausanne_dataset(cfg)
    write_tuples_csv(ds.tuples, args.out)
    print(f"wrote {len(ds)} tuples to {args.out}")
    return 0


def _dataset(args: argparse.Namespace):
    """The generated stream of ``--days`` and ``--seed``, unsubsampled."""
    from repro.data.lausanne import LausanneConfig, generate_lausanne_dataset

    return generate_lausanne_dataset(
        LausanneConfig(days=args.days, seed=args.seed, target_tuples=0)
    )


def _cmd_heatmap(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.app.heatmap import render_ascii, render_ppm
    from repro.app.webapp import WebInterface
    from repro.geo.coords import BoundingBox
    from repro.stack import StackConfig, build

    ds = _dataset(args)
    anchor = args.hour * 3600.0
    pos = min(int(np.searchsorted(ds.tuples.t, anchor)), len(ds.tuples) - 1)
    t = float(ds.tuples.t[pos])
    bounds = BoundingBox(0.0, 0.0, 6000.0, 4000.0)
    with build(StackConfig(shards=args.shards, h=500), ds.covered_bbox(), ds.tuples) as stack:
        web = WebInterface(stack.engine)
        if args.model_grid:
            heatmap = web.model_grid(t, bounds, nx=args.width, ny=args.height)
        else:
            heatmap = web.heatmap(t, bounds, nx=args.width, ny=args.height)
    if args.out:
        render_ppm(heatmap, args.out)
        print(f"wrote {args.out}")
    else:
        print(render_ascii(heatmap))
    return 0


def _serve_network(args: argparse.Namespace) -> int:
    """Ingest the dataset and serve it over HTTP/WebSocket.

    ``--processes N`` gives the engine a pool of N worker processes that
    runs every exact plan of the web modes over shared-memory shard
    exports (byte-identical answers, in-process fallback on worker
    failure; ``model-cover`` is answered in-process either way); without
    it the engine answers in-process.  ``--data-dir`` serves from the durable
    tier instead of RAM: on start the server *recovers* whatever the
    directory holds (sealed segments plus the WAL tail) and only ingests
    the generated dataset into an empty directory, so a restart after a
    crash resumes from the durable state; ``--memory-windows`` caps the
    resident sealed-window slices (cold windows fault in from segment
    files on demand).  Runs until interrupted.
    """
    import asyncio
    from dataclasses import fields

    from repro.query.sharded import CACHED_ROUTE_MAX_ROWS
    from repro.server.async_server import AsyncQueryServer
    from repro.stack import StackConfig, build

    try:
        config = StackConfig(**{f.name: getattr(args, f.name) for f in fields(StackConfig)})
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    ds = _dataset(args)
    # --subscriptions holds back the tail of the dataset so a live
    # trickle-ingest writer has something to push through the registry.
    tail = None
    head = ds.tuples
    if args.subscriptions:
        holdback = len(ds.tuples) // 10
        if holdback:
            cut = len(ds.tuples) - holdback
            head = ds.tuples.slice(0, cut)
            tail = ds.tuples.slice(cut, len(ds.tuples))
    with build(config, ds.covered_bbox(), head) as stack:
        if stack.recovered:
            print(
                f"recovered {stack.recovered} tuple(s) from {args.data_dir} "
                f"({stack.router.sealed_window_count()} sealed window(s)); "
                f"skipping dataset ingest"
            )
            tail = None  # durable state is the truth: nothing to trickle
        server = AsyncQueryServer(stack.service, port=args.port)
        mode = "in-process"
        if args.processes is not None:
            mode = f"{args.processes} worker process(es)"
            if not stack.router.prefix_exportable:
                # The engine's pool refuses every plan and the engine
                # answers it in-process: say so, the answers will not.
                mode += (
                    " idle: the durable tier exports no shard prefixes, "
                    "every plan runs in-process"
                )
        tier = f", durable tier at {args.data_dir}" if args.data_dir else ""
        subs = (
            ", standing subscriptions on /ws"
            f" ({len(tail.t) if tail is not None else 0} tuple(s) trickling live)"
            if args.subscriptions
            else ""
        )
        # Only model-cover answers can come from a cached cover on the
        # loop thread (ShardedQueryEngine.cached_point / cached_route);
        # say which case this is.
        lane = (
            "cached point queries and routes of up to "
            f"{CACHED_ROUTE_MAX_ROWS} updates answered on the event loop"
            if args.method == "model-cover"
            else "no cached lane: every query takes the executor"
        )

        async def serve() -> None:
            # Bind first: a client that connects when the line appears
            # must find the port listening.
            await server.start()
            print(
                f"serving {stack.router.global_count()} tuples over {args.shards} shard(s), "
                f"{mode}{tier}{subs}; method {args.method} ({lane}); "
                f"http://127.0.0.1:{args.port} (Ctrl-C to stop)",
                flush=True,
            )
            await server.serve_forever()

        # Only --subscriptions over a store that recovered nothing has a tail.
        stop_trickle = None if tail is None else _start_trickle(stack.service, tail)
        try:
            asyncio.run(serve())
        except KeyboardInterrupt:
            pass
        finally:
            if stop_trickle is not None:
                stop_trickle.set()
    return 0


def _start_trickle(service, tail, interval_s: float = 2.0):
    """Feed the held-back dataset tail through the service's ingest in
    small batches from a daemon thread (each one wakes the subscription
    registry) — the free-running ingest writer that makes standing
    subscriptions move.  Returns the stop event."""
    import threading

    stop = threading.Event()
    step = max(1, len(tail.t) // 50)

    def run() -> None:
        for start in range(0, len(tail.t), step):
            if stop.wait(interval_s):
                return
            service.ingest(tail.slice(start, min(start + step, len(tail.t))))

    threading.Thread(
        target=run, daemon=True, name="subscription-trickle"
    ).start()
    return stop


def _cmd_recover(args: argparse.Namespace) -> int:
    """Open a tiered data directory, replaying its WAL and completing any
    interrupted seal, then report (and optionally verify) what survived."""
    from repro.storage.tiered import TieredShardRouter

    try:
        router = TieredShardRouter.open(args.data_dir)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with router:
        stats = router.tier_stats()
        print(
            f"recovered {router.global_count()} tuple(s): "
            f"{stats['sealed_windows']} sealed window(s) in segment files, "
            f"{router.global_count() - stats['sealed_windows'] * router.h} "
            f"tail row(s) from the WAL"
        )
        print(
            f"shards ({router.n_shards}): per-shard tuple counts "
            f"[{', '.join(str(c) for c in router.shard_counts())}]"
        )
        if args.verify:
            report = router.compact(verify=True)
            print(
                f"verified {report['segments_verified']} segment(s); "
                f"removed {report['orphans_removed']} orphan(s), "
                f"{report['tmp_removed']} temp file(s)"
            )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    """Tidy a tiered data directory: checkpoint the WAL, drop orphan
    segments and stray temp files, optionally verify every checksum."""
    from repro.storage.tiered import TieredShardRouter

    try:
        router = TieredShardRouter.open(args.data_dir)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with router:
        report = router.compact(verify=args.verify)
        stats = router.tier_stats()
        print(
            f"compacted {args.data_dir}: removed {report['orphans_removed']} "
            f"orphan segment(s) and {report['tmp_removed']} temp file(s); "
            f"WAL checkpointed at window {stats['sealed_windows']}"
        )
        if args.verify:
            print(f"verified {report['segments_verified']} segment(s)")
    return 0


def _format_shard_table(router) -> str:
    """Per-shard occupancy/load table (the ``shards`` subcommand body,
    also appended to sharded ``explain`` output).

    Occupancy comes from :meth:`window_stats` — whose rows carry the
    ingest epoch they were read at, so a row read while a writer (or a
    rebalance) advanced the store is labelled ``stale`` rather than
    silently presented as current — and load from
    :meth:`shard_load_stats`.  The footer's skew coefficients are
    max/mean ratios (1.0 = perfectly balanced).
    """
    from repro.geo.region import RefinedRegionGrid
    from repro.storage.load import skew_coefficient

    n = router.n_shards
    counts = router.shard_counts()
    load_stats = router.shard_load_stats()
    occupied = [0] * n
    stale = [False] * n
    for c in range(router.global_window_count()):
        for s, (_stamp, n_rows, read_epoch) in enumerate(router.window_stats(c)):
            if n_rows:
                occupied[s] += 1
            if read_epoch != router.epoch:
                stale[s] = True
    grid = router.grid
    refined = grid if isinstance(grid, RefinedRegionGrid) else None
    lines = [
        f"{'shard':>5} {'cell':>5} {'rows':>8} {'windows':>7} "
        f"{'ingested':>9} {'queries':>8} {'scan-units':>11} {'load':>10}  flags"
    ]
    for s in range(n):
        if refined is not None and not refined.active_shards[s]:
            continue  # retired hole slot
        cell = refined.cell_of_shard(s) if refined is not None else s
        st = load_stats[s]
        flags = []
        if refined is not None and refined.is_split(cell):
            flags.append("split")
        if stale[s]:
            flags.append("stale")
        lines.append(
            f"{s:>5} {cell:>5} {counts[s]:>8} {occupied[s]:>7} "
            f"{st.ingest_rows:>9} {st.scan_queries:>8} {st.scan_units:>11.0f} "
            f"{st.load:>10.1f}  {' '.join(flags)}"
        )
    row_skew = skew_coefficient(counts)
    ewma_skew = skew_coefficient([st.load for st in load_stats])
    lines.append(
        f"skew (max/mean): rows {row_skew:.2f}, recent load {ewma_skew:.2f}"
    )
    return "\n".join(lines)


def _cmd_shards(args: argparse.Namespace) -> int:
    """Ingest a dataset, drive a (possibly skewed) query workload, and
    print the per-shard occupancy/load table — optionally letting the
    adaptive rebalancer act between workload rounds."""
    import numpy as np

    from repro.query.base import QueryBatch
    from repro.stack import StackConfig, build

    ds = _dataset(args)
    bounds = ds.covered_bbox()
    with build(StackConfig(shards=args.shards, h=args.h), bounds, ds.tuples) as stack:
        if args.queries:
            rng = np.random.default_rng(args.seed)
            # Query positions contracted toward the region centre by
            # --focus (1.0 = uniform): the skewed read traffic whose load
            # the table and the rebalancer observe.
            qx = bounds.min_x + bounds.width / 2 + (
                rng.uniform(-0.5, 0.5, args.queries) * bounds.width * args.focus
            )
            qy = bounds.min_y + bounds.height / 2 + (
                rng.uniform(-0.5, 0.5, args.queries) * bounds.height * args.focus
            )
            qt = rng.uniform(float(ds.tuples.t[0]), float(ds.tuples.t[-1]), args.queries)
            stack.engine.continuous_query_batch(QueryBatch(qt, qx, qy))
        if args.rebalance:
            from repro.storage.rebalance import ShardRebalancer

            rebalancer = ShardRebalancer(stack.router)
            for action in rebalancer.run(max_steps=args.rebalance):
                detail = ""
                if action.kind == "split":
                    detail = f"shard {action.shard} -> {list(action.new_shards)}"
                elif action.kind == "merge":
                    detail = f"cell {action.cell} -> shard {action.shard}"
                print(
                    f"rebalance: {action.kind} {detail} "
                    f"(skew was {action.skew:.2f})"
                )
        print(_format_shard_table(stack.router))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Compile one query workload, print the plan, run it, print timings."""
    import numpy as np

    from repro.query.base import QueryBatch
    from repro.query.pipeline.plan import PlanReport, format_plan
    from repro.stack import StackConfig, build

    ds = _dataset(args)
    tuples = ds.tuples
    bounds = ds.covered_bbox()
    anchor = args.hour * 3600.0
    pos = min(int(np.searchsorted(tuples.t, anchor)), len(tuples) - 1)
    t = float(tuples.t[pos])
    if args.queries:
        # A continuous stream sweeping the whole day (diagonal time walk).
        span = len(tuples) - 1
        picks = [i * span // max(args.queries - 1, 1) for i in range(args.queries)]
        qx = tuples.x[picks] + 50.0
        qy = tuples.y[picks] - 50.0
        if args.focus < 1.0:
            # Localize the stream spatially: contract every query point
            # toward the covered box's centre, keeping the time sweep.
            qx = bounds.min_x + bounds.width / 2 + (qx - bounds.min_x - bounds.width / 2) * args.focus
            qy = bounds.min_y + bounds.height / 2 + (qy - bounds.min_y - bounds.height / 2) * args.focus
        batch = QueryBatch(tuples.t[picks], qx, qy)
        workload = f"continuous stream of {len(batch)} queries"
    else:
        w = bounds.width * args.focus
        h_box = bounds.height * args.focus
        batch = QueryBatch.from_grid(
            t,
            bounds.min_x + (bounds.width - w) / 2,
            bounds.min_y + (bounds.height - h_box) / 2,
            w, h_box, args.width, args.height,
        )
        workload = f"{args.width}x{args.height} heatmap grid at hour {args.hour}"
    if args.focus < 1.0:
        workload += f" (focused on the centre {args.focus:.0%} of the region)"

    print(f"workload: {workload} ({args.shards} shard(s), h={args.h})")
    report = PlanReport()
    prune = not args.no_prune
    with build(StackConfig(shards=args.shards, h=args.h), bounds, tuples) as stack:
        engine = stack.engine
        if args.warm:
            # One untimed run first: covers materialise, so the
            # printed plan shows steady-state timings.
            engine.execute(engine.plan(batch, args.method, prune=prune))
        plan = engine.plan(batch, args.method, prune=prune)
        result = engine.execute(plan, report)
        print(format_plan(plan, report))
        cache = engine.cache_stats.as_dict()
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = round(cache["hits"] / lookups, 4) if lookups else 0.0
        print(f"answered {result.n_answered}/{len(result)} queries; cache {cache}")
        print(
            f"pruning: ops_pruned={report.ops_pruned} ops_kept={report.ops_kept} "
            f"(engine cumulative {engine.prune_stats.as_dict()})"
        )
        print("\nper-shard occupancy and load:")
        print(_format_shard_table(stack.router))
    return 0


def _positive_int(text: str) -> int:
    """A size: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _count(text: str) -> int:
    """A count: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def _fraction(text: str) -> float:
    """A focus fraction in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.query.sharded import SHARDED_METHODS

    parser = argparse.ArgumentParser(
        prog="repro.cli", description="EnviroMeter reproduction tooling"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate the evaluation tables")
    p.add_argument("--quick", action="store_true", help="scaled-down run (~30 s)")
    p.add_argument(
        "--charts", action="store_true", help="also render ASCII charts (paper style)"
    )
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("dataset", help="generate lausanne-data as CSV")
    p.add_argument("--days", type=_positive_int, default=30)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--target", type=_count, default=176_000, help="0 = no subsampling"
    )
    p.add_argument("--out", default="lausanne.csv")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("heatmap", help="render the web UI heatmap")
    p.add_argument("--hour", type=float, default=8.5, help="hour of day 0-24")
    p.add_argument("--days", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--width", type=_positive_int, default=72)
    p.add_argument("--height", type=_positive_int, default=24)
    p.add_argument(
        "--model-grid",
        action="store_true",
        help="evaluate the owning model per cell (batched path) instead of "
        "the centroid-splat demo rendering",
    )
    p.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="region-shard the store: the splat blends the centroids of "
        "every shard's cover, --model-grid evaluates each cell's owning "
        "shard's cover",
    )
    p.add_argument("--out", default=None, help="PPM output path (default: ASCII to stdout)")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser(
        "serve", help="serve a generated stream over HTTP/WebSocket"
    )
    p.add_argument("--days", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--h", type=_positive_int, default=240, help="window size in tuples"
    )
    p.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="lay the store out over this many region shards (ingest "
        "routes to the owning shard only)",
    )
    p.add_argument(
        "--port",
        type=_positive_int,
        required=True,
        help="ingest the dataset, then serve the web modes and the "
        "paper's model request over HTTP/WebSocket on this port until "
        "interrupted",
    )
    p.add_argument(
        "--method",
        choices=SHARDED_METHODS,
        default="naive",
        help="the answer the web modes give: naive, the exact answer "
        "from the raw tuples (default), or model-cover, the paper's "
        "model-cover answer; only model-cover lets the front end answer "
        "cached point queries on its event loop",
    )
    p.add_argument(
        "--processes",
        type=_positive_int,
        default=None,
        help="give the engine a pool of this many worker processes that "
        "runs exact plans over shared-memory shard exports (answers are "
        "byte-identical to in-process; worker crashes fall back "
        "transparently)",
    )
    p.add_argument(
        "--data-dir",
        default=None,
        help="serve from a durable tiered store rooted here "
        "(sealed windows as segment files + WAL).  Recovers existing "
        "state on start; only an empty directory gets the generated "
        "dataset ingested",
    )
    p.add_argument(
        "--memory-windows",
        type=_positive_int,
        default=None,
        help="with --data-dir: cap on resident sealed (shard, window) "
        "slices; colder ones are evicted and fault back in from their "
        "segment files on demand (default: unbounded)",
    )
    p.add_argument(
        "--subscriptions",
        action="store_true",
        help="accept standing queries over /ws "
        "({\"mode\": \"subscribe\"} frames, pushed delta updates); holds "
        "back the last 10%% of the generated dataset and trickle-ingests "
        "it live so registered routes receive updates (skipped when "
        "--data-dir recovered existing state)",
    )
    p.set_defaults(func=_serve_network)

    p = sub.add_parser(
        "recover",
        help="recover a tiered data directory (WAL replay + seal completion)",
    )
    p.add_argument("--data-dir", required=True)
    p.add_argument(
        "--verify",
        action="store_true",
        help="additionally re-read every live segment, checking all "
        "checksums, and drop orphan files",
    )
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "compact",
        help="tidy a tiered data directory (checkpoint WAL, drop orphans)",
    )
    p.add_argument("--data-dir", required=True)
    p.add_argument(
        "--verify", action="store_true", help="also verify every segment checksum"
    )
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser(
        "explain",
        help="print the pipeline's execution plan for a query workload",
    )
    p.add_argument("--hour", type=float, default=8.5, help="hour of day 0-24")
    p.add_argument("--days", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--h", type=_positive_int, default=500, help="window size in tuples"
    )
    p.add_argument(
        "--method",
        choices=SHARDED_METHODS,
        default="model-cover",
        help="query method (default model-cover)",
    )
    p.add_argument(
        "--width", type=_positive_int, default=40, help="heatmap grid width"
    )
    p.add_argument(
        "--height", type=_positive_int, default=30, help="heatmap grid height"
    )
    p.add_argument(
        "--queries",
        type=_count,
        default=0,
        help="explain a continuous stream of this many queries instead of "
        "the heatmap grid",
    )
    p.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="region-shard the store and explain the scatter-gather plan",
    )
    p.add_argument(
        "--warm",
        action="store_true",
        help="run the plan once untimed first, so the printed timings show "
        "the steady state (covers fitted)",
    )
    p.add_argument(
        "--focus",
        type=_fraction,
        default=1.0,
        help="localize the workload to the centre fraction of the covered "
        "region (0 < f <= 1), e.g. 0.25 — localized disks are what the "
        "scatter-pruning pass turns into skipped shards",
    )
    p.add_argument(
        "--no-prune",
        action="store_true",
        help="with --method naive, compile the full scatter instead of the "
        "pruned plan (answers are byte-identical; for comparing fan-out); "
        "a model-cover plan has no ops, so it changes nothing there",
    )
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "shards",
        help="per-shard occupancy/load table, optionally after adaptive "
        "rebalancing",
    )
    p.add_argument("--days", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--h", type=_positive_int, default=500, help="window size in tuples"
    )
    p.add_argument(
        "--shards",
        type=_positive_int,
        default=6,
        help="number of region shards to lay the store out over",
    )
    p.add_argument(
        "--queries",
        type=_count,
        default=400,
        help="size of the query workload driven before reading the table "
        "(0 = ingest only)",
    )
    p.add_argument(
        "--focus",
        type=_fraction,
        default=1.0,
        help="contract the query workload to the centre fraction of the "
        "region (0 < f <= 1) — localized traffic is what makes the load "
        "skew coefficient move",
    )
    p.add_argument(
        "--rebalance",
        type=_count,
        default=0,
        help="let the adaptive rebalancer take up to this many actions "
        "(split / merge) before printing the table",
    )
    p.set_defaults(func=_cmd_shards)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
