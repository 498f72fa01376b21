"""The baseline client (Section 2.3).

"A baseline technique, which simply responds to each query tuple with the
interpolated sensor value ŝ_l, without caching the models."  Every query
tuple costs one uplink request and one downlink response over the
cellular link; the traffic ledger records what the bandwidth experiment
measures.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.data.tuples import QueryTuple
from repro.network.link import CellularLink
from repro.network.messages import QueryRequest, ValueResponse
from repro.network.protocol import framed_size
from repro.network.stats import TrafficStats
from repro.server.async_server import EngineQueryService


class BaselineClient:
    """Smartphone client that asks the server for every value."""

    def __init__(
        self, service: EngineQueryService, link: Optional[CellularLink] = None
    ) -> None:
        self._service = service
        self._link = link or CellularLink()
        self.stats = TrafficStats()

    @property
    def link(self) -> CellularLink:
        return self._link

    def query(self, q: QueryTuple) -> Optional[float]:
        """One position update: full round trip to the server."""
        request = QueryRequest(t=q.t, x=q.x, y=q.y)
        up_size = framed_size(len(request.body()))
        up_time = self._link.send_up(up_size)
        self.stats.record_sent(up_size, up_time)

        response = self._service.handle(request)
        if not isinstance(response, ValueResponse):
            raise RuntimeError("server returned an unexpected response type")
        down_size = framed_size(len(response.body()))
        down_time = self._link.send_down(down_size)
        self.stats.record_received(down_size, down_time)
        return None if math.isnan(response.value) else response.value

    def run_continuous(self, queries: List[QueryTuple]) -> List[Optional[float]]:
        """Process a whole continuous query (e.g. the experiment's 100
        query tuples)."""
        return [self.query(q) for q in queries]
