"""Tests for repro.cli."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_quick_flag(self):
        args = build_parser().parse_args(["figures", "--quick"])
        assert args.quick

    def test_dataset_defaults(self):
        args = build_parser().parse_args(["dataset"])
        assert args.days == 30
        assert args.target == 176_000

    @pytest.mark.parametrize(
        "argv",
        [
            ["shards", "--queries", "-3"],
            ["explain", "--queries", "-5"],
            ["shards", "--rebalance", "-1"],
            ["heatmap", "--width", "0"],
            ["heatmap", "--height", "0"],
            ["explain", "--width", "0"],
            ["explain", "--height", "-2"],
            ["explain", "--focus", "0"],
            ["explain", "--focus", "1.5"],
            ["shards", "--focus", "-0.25"],
            ["shards", "--focus", "nan"],
            ["explain", "--h", "0"],
            ["shards", "--days", "0"],
            ["dataset", "--target", "-1"],
            ["serve", "--port", "8765", "--h", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_numbers_exit_2_with_usage_before_any_work(
        self, argv, capsys, monkeypatch
    ):
        import repro.data.lausanne as lausanne

        monkeypatch.setattr(
            lausanne,
            "generate_lausanne_dataset",
            lambda *a, **k: pytest.fail("work started before validation"),
        )
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "error: argument" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["shards", "--queries", "0"],
            ["explain", "--focus", "1"],
            ["explain", "--focus", "0.01"],
            ["dataset", "--target", "0"],
            ["heatmap", "--width", "1", "--height", "1"],
        ],
    )
    def test_edge_values_parse(self, argv):
        build_parser().parse_args(argv)

    def test_serve_requires_a_port(self, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["serve", "--days", "1"])
        assert exited.value.code == 2
        assert "--port" in capsys.readouterr().err

    def test_serve_help_lists_no_replay_options(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        out = capsys.readouterr().out
        for gone in ("--batch-interval", "--query-every", "--serve-workers"):
            assert gone not in out


class TestCommands:
    def test_dataset_command(self, tmp_path, capsys):
        out = tmp_path / "small.csv"
        rc = main(
            ["dataset", "--days", "1", "--target", "500", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
        assert "500 tuples" in capsys.readouterr().out
        from repro.data.io import read_tuples_csv

        assert len(read_tuples_csv(out)) == 500

    def test_heatmap_ascii(self, capsys):
        rc = main(["heatmap", "--hour", "9.0", "--width", "20", "--height", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.rstrip("\n").split("\n")
        assert len(lines) == 8
        assert all(len(line) == 20 for line in lines)

    def test_heatmap_ppm(self, tmp_path, capsys):
        out = tmp_path / "map.ppm"
        rc = main(["heatmap", "--out", str(out), "--width", "16", "--height", "8"])
        assert rc == 0
        assert out.read_bytes().startswith(b"P6\n16 8\n255\n")

    def test_heatmap_sharded_ascii(self, capsys):
        rc = main(
            [
                "heatmap", "--hour", "9.0",
                "--width", "18", "--height", "6", "--shards", "4",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.rstrip("\n").split("\n")
        assert len(lines) == 6
        assert all(len(line) == 18 for line in lines)

    @pytest.mark.parametrize("model_grid", [False, True], ids=["splat", "model-grid"])
    def test_heatmap_sharded_draws_the_web_interface_map(
        self, capsys, small_dataset, model_grid
    ):
        """At every shard count the CLI draws what the web interface over
        that engine renders: the centroid splat, or the owning-model grid
        with --model-grid."""
        import numpy as np

        from repro.app.heatmap import render_ascii
        from repro.app.webapp import WebInterface
        from repro.geo.coords import BoundingBox
        from repro.geo.region import RegionGrid
        from repro.query.sharded import ShardedQueryEngine
        from repro.storage.shards import ShardRouter

        argv = ["heatmap", "--hour", "9.0", "--width", "18", "--height", "6",
                "--shards", "4"]
        rc = main(argv + (["--model-grid"] if model_grid else []))
        assert rc == 0
        tuples = small_dataset.tuples
        t = float(tuples.t[int(np.searchsorted(tuples.t, 9.0 * 3600.0))])
        router = ShardRouter(
            RegionGrid.for_shard_count(small_dataset.covered_bbox(), 4), h=500
        )
        router.ingest(tuples)
        web = WebInterface(ShardedQueryEngine(router))
        draw = web.model_grid if model_grid else web.heatmap
        expected = draw(t, BoundingBox(0.0, 0.0, 6000.0, 4000.0), nx=18, ny=6)
        assert capsys.readouterr().out == render_ascii(expected) + "\n"

    def test_shards_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shards", "0"])


class TestExplain:
    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.method == "model-cover"
        assert args.shards == 1
        assert args.queries == 0

    def test_explain_heatmap_prints_plan(self, capsys):
        rc = main(
            [
                "explain", "--hour", "9.0",
                "--width", "12", "--height", "8", "--method", "model-cover",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan: method=model-cover" in out
        assert "observed" in out and "est u/q" not in out
        assert "cache {" in out

    def test_explain_sharded_continuous(self, capsys):
        rc = main(
            [
                "explain", "--shards", "4", "--queries", "60",
                "--method", "model-cover", "--warm",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan: method=model-cover" in out
        assert "/s" in out  # per-shard contexts rendered

    def test_explain_model_cover_lists_what_the_one_path_answered(self, capsys):
        """One line per (window, owner) run — ``cover`` or ``rows``, its
        context, queries and rows — and a cover run charges each shard
        its cover's models a query, not the slice's rows."""
        rc = main(
            [
                "explain", "--h", "240", "--width", "10", "--height", "8",
                "--shards", "2", "--warm",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "ops=0 shape=cover pruned=0 runs=2" in lines[1]
        runs = [l.split() for l in lines if l.lstrip().startswith("cover[model-cover]")]
        assert [run[1] for run in runs] == ["w4/s0@e1", "w4/s1@e1"]
        assert [int(run[2]) for run in runs] == [40, 40]
        assert sum(int(run[3]) for run in runs) == 240  # the window's slices
        assert all(run[-1].endswith("ms") for run in runs)
        assert not [l for l in lines if "rows[model-cover]" in l or "gather:" in l]
        table = lines[lines.index("per-shard occupancy and load:") + 2 :][:2]
        for row, run in zip(table, runs):
            queries, units = int(row.split()[5]), int(row.split()[6])
            assert queries == 80  # the warm-up's runs and the timed ones
            assert units < queries * int(run[3])  # models, not slice rows

    def test_explain_model_cover_lists_an_empty_owner_as_rows(self, capsys):
        """A heatmap over 16 shards reaches shards with no rows: each
        such owner's run scans its window's rows (h of them)."""
        argv = ["explain", "--shards", "16", "--width", "8", "--height", "6", "--h", "240"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        runs = [l.split() for l in lines if "[model-cover]" in l]
        assert {run[0] for run in runs} == {"cover[model-cover]", "rows[model-cover]"}
        assert sum(int(run[2]) for run in runs) == 48
        rows = [run for run in runs if run[0] == "rows[model-cover]"]
        assert all(run[1].endswith("@e0") and run[3] == "240" for run in rows)

    @pytest.mark.parametrize("command", ["explain", "heatmap", "shards"])
    def test_workers_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--workers", "2"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "unrecognized arguments: --workers 2" in err

    def test_explain_unknown_method_exits_2_with_usage(self, capsys, monkeypatch):
        import repro.data.lausanne as lausanne

        monkeypatch.setattr(
            lausanne,
            "generate_lausanne_dataset",
            lambda *a, **k: pytest.fail("work started before validation"),
        )
        with pytest.raises(SystemExit) as exited:
            main(["explain", "--method", "bogus"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ")
        assert "argument --method: invalid choice: 'bogus'" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_explain_merge_plan_attributes_scan_and_gather_time(self, capsys):
        rc = main(["explain", "--shards", "4", "--method", "naive"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        scans = [l for l in lines if l.lstrip().startswith("scan[naive]+hits")]
        assert scans and all(l.rstrip().endswith("ms") for l in scans)
        gather = [l for l in lines if l.lstrip().startswith("gather:")]
        assert len(gather) == 1
        assert float(gather[0].split()[1].rstrip("ms")) > 0.0
        # The gather line sits between the op table and the total.
        assert lines.index(gather[0]) + 1 == next(
            i for i, l in enumerate(lines) if l.lstrip().startswith("total:")
        )


class TestShardsCommand:
    def test_shards_prints_load_table(self, capsys):
        rc = main(["shards", "--days", "1", "--shards", "6", "--queries", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        header = next(l for l in out.splitlines() if l.startswith("shard"))
        for col in ("cell", "rows", "windows", "ingested", "queries",
                    "scan-units", "load", "flags"):
            assert col in header
        assert "skew (max/mean):" in out

    def test_shards_rebalance_splits_and_flags(self, capsys):
        rc = main(
            [
                "shards", "--days", "1", "--shards", "6", "--queries", "80",
                "--focus", "0.25", "--rebalance", "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rebalance: split shard" in out
        assert "split" in out.split("flags", 1)[1]  # tiles flagged in table

    def test_explain_sharded_includes_shard_table(self, capsys):
        rc = main(["explain", "--shards", "4", "--queries", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-shard occupancy and load:" in out
        assert "skew (max/mean):" in out

    def test_explain_one_shard_includes_shard_table(self, capsys):
        rc = main(["explain", "--queries", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(1 shard(s), h=500)" in out
        assert "/s0@" in out  # the one shard's contexts
        assert "per-shard occupancy and load:" in out


class TestServeSubscriptions:
    def test_parser_accepts_flag(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--subscriptions"]
        )
        assert args.subscriptions


async def _bind_nothing(self):
    """``AsyncQueryServer.start`` for tests of the start-up line: binds
    no port."""


class TestServeStartUp:
    def test_the_port_listens_before_the_line_is_printed(self, capsys, monkeypatch):
        """``serve`` printed its ``serving ... http://127.0.0.1:<port>``
        line before the event loop bound the port, so a client that
        connected on seeing it could be refused."""
        from repro.server.async_server import AsyncQueryServer

        events = []

        async def start(self):
            events.append(("start", capsys.readouterr().out))

        async def serve_nothing(self):
            events.append(("serve", capsys.readouterr().out))

        monkeypatch.setattr(AsyncQueryServer, "start", start)
        monkeypatch.setattr(AsyncQueryServer, "serve_forever", serve_nothing)
        assert main(["serve", "--days", "1", "--port", "8765"]) == 0
        assert [event for event, _ in events] == ["start", "serve"]
        assert "serving " not in events[0][1]
        assert "serving " in events[1][1] and "http://127.0.0.1:8765" in events[1][1]


class TestServeMethod:
    def test_network_mode_serves_the_chosen_method_and_says_so(
        self, capsys, monkeypatch
    ):
        """``serve --port`` always built its service with the default
        ``method="naive"``, so the deployed front end could never take
        the cached lane — and nothing said so."""
        from repro.server.async_server import AsyncQueryServer

        services = []

        async def serve_nothing(self):
            services.append(self.service)

        monkeypatch.setattr(AsyncQueryServer, "start", _bind_nothing)
        monkeypatch.setattr(AsyncQueryServer, "serve_forever", serve_nothing)
        base = ["serve", "--days", "1", "--shards", "4", "--port", "8765"]
        assert main(base + ["--method", "model-cover"]) == 0
        out = capsys.readouterr().out
        assert services[-1].method == "model-cover"
        assert (
            "method model-cover (cached point queries and routes of up to 128 "
            "updates answered on the event loop)"
        ) in out
        assert main(base) == 0  # the default has not moved
        out = capsys.readouterr().out
        assert services[-1].method == "naive"
        assert "method naive (no cached lane" in out
        with pytest.raises(SystemExit):
            main(["serve", "--days", "1", "--method", "naive"])
        err = capsys.readouterr().err
        assert "the following arguments are required: --port" in err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", "1", "--method", "psychic"])

    def test_idle_worker_pool_over_the_durable_tier_is_announced(
        self, capsys, monkeypatch, tmp_path
    ):
        """``--data-dir`` exports no shard prefixes, so ``--processes``
        workers never receive a plan — the start-up line used to promise
        them regardless."""
        from repro.server.async_server import AsyncQueryServer

        async def serve_nothing(self):
            pass

        monkeypatch.setattr(AsyncQueryServer, "start", _bind_nothing)
        monkeypatch.setattr(AsyncQueryServer, "serve_forever", serve_nothing)
        base = ["serve", "--days", "1", "--shards", "2", "--port", "8765", "--processes", "2"]
        assert main(base + ["--data-dir", str(tmp_path / "tier")]) == 0
        out = capsys.readouterr().out
        assert "2 worker process(es) idle" in out and "every plan runs in-process" in out
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "2 worker process(es);" in out and "idle" not in out


_NAIVE_LANE = "method naive (no cached lane: every query takes the executor)"
_IDLE_POOL = (
    "2 worker process(es) idle: the durable tier exports no shard prefixes, "
    "every plan runs in-process"
)


class TestServeOutputIsPinned:
    """The exact start-up text and exit status of ``serve`` for each way
    of putting the stack together, with no port bound."""

    @pytest.fixture(autouse=True)
    def no_socket(self, monkeypatch):
        from repro.server.async_server import AsyncQueryServer

        async def serve_nothing(self):
            pass

        monkeypatch.setattr(AsyncQueryServer, "start", _bind_nothing)
        monkeypatch.setattr(AsyncQueryServer, "serve_forever", serve_nothing)

    @staticmethod
    def _serve(capsys, *flags):
        rc = main(["serve", "--port", "8765", *flags])
        captured = capsys.readouterr()
        assert captured.err == ""
        return rc, captured.out

    @pytest.mark.parametrize(
        "flags, line",
        [
            ([], f"6024 tuples over 1 shard(s), in-process; {_NAIVE_LANE}"),
            (
                ["--processes", "2", "--shards", "4"],
                f"6024 tuples over 4 shard(s), 2 worker process(es); {_NAIVE_LANE}",
            ),
            (
                ["--method", "model-cover", "--subscriptions"],
                "5422 tuples over 1 shard(s), in-process, standing subscriptions "
                "on /ws (602 tuple(s) trickling live); method model-cover (cached "
                "point queries and routes of up to 128 updates answered on the "
                "event loop)",
            ),
        ],
    )
    def test_resident(self, capsys, flags, line):
        assert self._serve(capsys, *flags) == (
            0,
            f"serving {line}; http://127.0.0.1:8765 (Ctrl-C to stop)\n",
        )

    def test_durable_then_recovered(self, capsys, tmp_path):
        tier = tmp_path / "tier"
        flags = ["--processes", "2", "--data-dir", str(tier)]
        serving = (
            f"serving 6024 tuples over 1 shard(s), {_IDLE_POOL}, durable tier "
            f"at {tier}; {_NAIVE_LANE}; http://127.0.0.1:8765 (Ctrl-C to stop)\n"
        )
        assert self._serve(capsys, *flags) == (0, serving)
        recovered = (
            f"recovered 6024 tuple(s) from {tier} (25 sealed window(s)); "
            "skipping dataset ingest\n"
        )
        assert self._serve(capsys, *flags) == (0, recovered + serving)

    def test_memory_windows_without_a_data_dir_exits_2_before_any_work(
        self, capsys, monkeypatch
    ):
        import repro.data.lausanne as lausanne

        monkeypatch.setattr(
            lausanne,
            "generate_lausanne_dataset",
            lambda *a, **k: pytest.fail("work started before validation"),
        )
        assert main(["serve", "--port", "8765", "--memory-windows", "4"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "--memory-windows needs --data-dir\n",
        )


_EXPLAIN_UNPRUNED = """\
workload: 40x30 heatmap grid at hour 8.5 (focused on the centre 25% of the region) (4 shard(s), h=500)
plan: method=model-cover queries=1200 ops=0 shape=cover pruned=0 runs=4
  op                     context        queries    rows    observed
  cover[model-cover]     w1/s0@e1           300     201      <ms>
  rows[model-cover]      w1/s1@e0           300     500      <ms>
  cover[model-cover]     w1/s2@e1           300     154      <ms>
  cover[model-cover]     w1/s3@e1           300     145      <ms>
  total: <ms>
answered 1200/1200 queries; cache {'hits': 0, 'misses': 3, 'evictions': 0, 'stale': 0, 'hit_rate': 0.0}
pruning: ops_pruned=0 ops_kept=0 (engine cumulative {'plans': 1, 'ops_pruned': 0, 'ops_kept': 0})

per-shard occupancy and load:
shard  cell     rows windows  ingested  queries  scan-units       load  flags
    0     0     2738      13      2738      600       62400    19541.4
    1     1        0       0         0        0           0        0.0
    2     2     1757      13      1757      600       48000    14927.1
    3     3     1529      13      1529      600       45300    14048.7
skew (max/mean): rows 1.82, recent load 1.61
"""


class TestExplainOutputIsPinned:
    @staticmethod
    def _masked(capsys, argv):
        import re

        assert main(argv) == 0
        out = re.sub(r"\d+\.\d+ms", "<ms>", capsys.readouterr().out)
        return "".join(line.rstrip() + "\n" for line in out.splitlines())

    def test_unpruned_focused_heatmap(self, capsys):
        argv = ["explain", "--shards", "4", "--focus", "0.25", "--no-prune"]
        assert self._masked(capsys, argv) == _EXPLAIN_UNPRUNED

    def test_no_prune_reaches_the_plan(self, capsys):
        """A naive heatmap focused on 10 % of a 16-shard region: the
        pruned plan keeps 4 of 10 ops, the unpruned one all 10."""
        argv = ["explain", "--shards", "16", "--focus", "0.1", "--method", "naive"]
        lean = self._masked(capsys, argv).splitlines()
        full = self._masked(capsys, argv + ["--no-prune"]).splitlines()
        assert lean[1] == "plan: method=naive queries=1200 ops=4 shape=merge pruned=6"
        assert full[1] == "plan: method=naive queries=1200 ops=10 shape=merge pruned=0"
        lean, full = (
            [line for line in lines if line.startswith("pruning: ")]
            for lines in (lean, full)
        )
        assert lean == [
            "pruning: ops_pruned=6 ops_kept=4 "
            "(engine cumulative {'plans': 1, 'ops_pruned': 6, 'ops_kept': 4})"
        ]
        assert full == [
            "pruning: ops_pruned=0 ops_kept=10 "
            "(engine cumulative {'plans': 1, 'ops_pruned': 0, 'ops_kept': 10})"
        ]


class TestImportHygiene:
    def test_every_repro_module_needs_only_numpy_beyond_the_stdlib(self):
        """Import every module under ``repro`` in a fresh interpreter (so
        no other test's imports count): the only top-level packages it
        adds outside the standard library are numpy and ``repro`` itself,
        as ``requirements-dev.txt`` promises.  The interpreter's own
        start-up modules are subtracted, since ``site`` may import
        third-party packages before any of ours.  Modules are judged by
        their own ``__name__``, not their ``sys.modules`` key:
        multiprocessing files ``__main__`` under a second key."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import importlib, pkgutil, sys\n"
            "def tops():\n"
            "    mods = list(sys.modules.values())\n"
            "    return {getattr(m, '__name__', '').partition('.')[0] for m in mods}\n"
            "bare = tops()\n"
            "import repro\n"
            "def fail(name):\n"
            "    raise ImportError(name)\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.', fail):\n"
            "    importlib.import_module(info.name)\n"
            "new = tops() - bare\n"
            "print(' '.join(sorted(new - set(sys.stdlib_module_names))))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["numpy", "repro"]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_exists(self, package):
        """A package's ``__all__`` names only what it defines, once: a
        re-export left behind by a deleted module breaks ``import *``."""
        mod = importlib.import_module(package)
        exported = mod.__all__
        assert len(exported) == len(set(exported))
        assert [name for name in exported if not hasattr(mod, name)] == []
