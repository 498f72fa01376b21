"""The EnviroMeter server (Figure 1/3 server region): one front end,
:class:`~repro.server.async_server.EngineQueryService`, answering the
paper's protocol in process and the web modes on the socket."""

from repro.server.async_server import DEFAULT_COVER_CACHE_CAPACITY, EngineQueryService

__all__ = [
    "DEFAULT_COVER_CACHE_CAPACITY",
    "EngineQueryService",
]
