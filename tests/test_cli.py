"""Tests for repro.cli."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


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

    def test_serve_command(self, capsys):
        rc = main(["serve", "--days", "1", "--query-every", "14400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "cover(s)" in out

    def test_serve_shards_require_network_mode(self, capsys):
        rc = main(
            ["serve", "--days", "1", "--query-every", "14400", "--shards", "4"]
        )
        assert rc == 2
        assert "--port" in capsys.readouterr().err

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

    def test_shards_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shards", "0"])


class TestExplain:
    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.method == "auto"
        assert args.shards == 1
        assert args.queries == 0

    def test_explain_heatmap_prints_plan(self, capsys):
        rc = main(
            [
                "explain", "--hour", "9.0",
                "--width", "12", "--height", "8", "--method", "auto",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan: method=auto" in out
        assert "est u/q" in out and "observed" in out
        assert "cache {" in out
        assert "planner feedback" in out

    def test_explain_sharded_continuous(self, capsys):
        rc = main(
            [
                "explain", "--shards", "4", "--queries", "60",
                "--method", "auto", "--warm",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan: method=auto" in out
        assert "/s" in out  # per-shard contexts rendered

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

    def test_explain_unsharded_omits_shard_table(self, capsys):
        rc = main(["explain", "--queries", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-shard occupancy" not in out
        assert "gather:" not in out  # scatter-shaped: nothing to gather


class TestServeSubscriptions:
    def test_subscriptions_require_network_mode(self, capsys):
        rc = main(["serve", "--days", "1", "--subscriptions"])
        assert rc == 2
        assert "--port" in capsys.readouterr().err

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
        assert main(["serve", "--days", "1", "--method", "grid"]) == 2
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
    def test_server_start_does_not_import_networkx(self):
        """Only the street graph needs networkx; starting a server must
        not pay for it (a fresh interpreter, so no other test's imports
        count)."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, repro.cli, repro.server.async_server; "
            "print('networkx' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"
