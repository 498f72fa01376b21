"""``--smoke`` runs every code path end to end and leaves nothing behind."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.harness import OUT, ROOT


def _launchers_alive() -> int:
    alive = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                alive += b"benchmarks.e2e.serve" in f.read()
        except OSError:
            continue
    return alive


def test_smoke_run_is_clean_and_complete(tmp_path: Path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    launchers_before = _launchers_alive()
    work_before = set(OUT.glob("work-*"))
    out = tmp_path / "smoke.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--seed", "7", "--json-out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]

    report = json.loads(out.read_text())["workloads"]
    assert list(report) == [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name, numbers in report.items():
        assert numbers["failed"] == 0, name
        assert numbers["end_to_end"]["error_share"] == 0.0
        # BENCHMARK.json and the harness must name the same metrics.
        assert set(numbers["end_to_end"]) - {"error_share"} == end_to_end, name
        assert set(numbers["per_layer"]) == per_layer, name
        assert all(v > 0 for k, v in numbers["end_to_end"].items() if k != "error_share")
    for name in report:
        assert f"-- {name}: oracle" in done.stdout

    # Child hygiene: no launcher outlives the harness, no work directory,
    # no shared-memory segment is left behind.
    assert _launchers_alive() == launchers_before
    assert set(OUT.glob("work-*")) <= work_before
    if os.path.isdir("/dev/shm"):
        assert set(os.listdir("/dev/shm")) == shm_before
