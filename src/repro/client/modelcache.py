"""The model-cache client (Section 2.3).

System initialisation: send a model request ``e_l``; the server responds
with (i) the coefficients of all models in M, (ii) the centroids µ, and
(iii) the validity horizon ``t_n``.  The client stores ``(t_n, µ, M)``.

For every query tuple: if ``t_l <= t_n``, find the nearest centroid µ*
and evaluate its model locally — **no server contact**.  If ``t_l > t_n``
the cached cover is invalid: send a new model request and refresh.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple
from repro.network.link import CellularLink
from repro.network.messages import ModelCoverResponse, ModelRequest
from repro.network.protocol import framed_size
from repro.network.stats import TrafficStats
from repro.server.async_server import EngineQueryService


class ModelCacheClient:
    """Smartphone client that caches the model cover locally."""

    def __init__(
        self, service: EngineQueryService, link: Optional[CellularLink] = None
    ) -> None:
        self._service = service
        self._link = link or CellularLink()
        self.stats = TrafficStats()
        self._cover: Optional[ModelCover] = None

    @property
    def link(self) -> CellularLink:
        return self._link

    @property
    def cached_cover(self) -> Optional[ModelCover]:
        return self._cover

    @property
    def cache_refreshes(self) -> int:
        """How many model requests this client has issued."""
        return self.stats.sent_messages

    def _refresh(self, q: QueryTuple) -> None:
        """Fetch a fresh cover from the server (one round trip)."""
        request = ModelRequest(t=q.t, x=q.x, y=q.y)
        up_size = framed_size(len(request.body()))
        up_time = self._link.send_up(up_size)
        self.stats.record_sent(up_size, up_time)

        response = self._service.handle(request)
        if not isinstance(response, ModelCoverResponse):
            raise RuntimeError("server returned an unexpected response type")
        down_size = framed_size(len(response.body()))
        down_time = self._link.send_down(down_size)
        self.stats.record_received(down_size, down_time)
        self._cover = response.cover()

    def query(self, q: QueryTuple) -> Optional[float]:
        """One position update: local evaluation unless the cover expired."""
        if self._cover is None or not self._cover.is_valid_at(q.t):
            self._refresh(q)
        assert self._cover is not None
        return self._cover.predict(q.t, q.x, q.y)

    def run_continuous(self, queries: List[QueryTuple]) -> List[Optional[float]]:
        return [self.query(q) for q in queries]
