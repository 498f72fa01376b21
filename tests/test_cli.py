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
            main(["serve", "--days", "1", "--method", "grid"])
        assert "--port" in capsys.readouterr().err
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

        monkeypatch.setattr(AsyncQueryServer, "serve_forever", serve_nothing)
        base = ["serve", "--days", "1", "--shards", "2", "--port", "8765", "--processes", "2"]
        assert main(base + ["--data-dir", str(tmp_path / "tier")]) == 0
        out = capsys.readouterr().out
        assert "2 worker process(es) idle" in out and "every plan runs in-process" in out
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "2 worker process(es);" in out and "idle" not in out



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
