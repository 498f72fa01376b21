"""The command ``BENCHMARK.json`` names: ``python3 benchmarks/e2e/run.py``.

Run by path from the root of a checkout, so neither the repo root nor
``src`` is importable yet; this puts both on ``sys.path`` and hands over
to :mod:`benchmarks.e2e.main`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.main import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
