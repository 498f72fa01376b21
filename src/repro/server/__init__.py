"""The EnviroMeter server (Figure 1/3 server region)."""

from repro.server.server import EnviroMeterServer

__all__ = [
    "EnviroMeterServer",
]
