"""Socket-level end-to-end benchmark of the EnviroMeter serving stack.

See ``README.md`` in this directory.  Entry points: ``python -m
benchmarks.e2e`` (with ``PYTHONPATH=src``) and ``run.py`` (the command
``BENCHMARK.json`` names; it finds ``src`` itself).
"""
