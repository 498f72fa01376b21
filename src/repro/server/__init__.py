"""The EnviroMeter server (Figure 1/3 server region)."""

from repro.server.server import ConcurrentEnviroMeterServer, EnviroMeterServer

__all__ = [
    "ConcurrentEnviroMeterServer",
    "EnviroMeterServer",
]
