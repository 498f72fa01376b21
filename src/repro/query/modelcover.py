"""The model-cover method (Section 2.2).

"We first find the cluster centroid µ* in µ that is nearest to
(x_l, y_l).  Then the model M* corresponding to µ* is used for
interpolating the sensor value ŝ_l."

Cost per query: an O(O) centroid scan plus one model evaluation, with O
(the number of models) typically single- to low-double-digit — versus an
O(H) scan (naive) or an index descent over H indexed tuples.  That gap is
Figure 6(a).
"""

from __future__ import annotations

import numpy as np

from repro.core.cover import ModelCover
from repro.data.tuples import QueryTuple
from repro.query.base import BatchResult, QueryBatch, QueryResult


class ModelCoverProcessor:
    """Nearest-centroid model evaluation against a fitted cover."""

    name = "model-cover"

    def __init__(self, cover: ModelCover) -> None:
        self._cover = cover
        # Unpack centroids into flat Python lists once: the per-query scan
        # then runs on unboxed floats, the same engineering the naive scan
        # gets, keeping the efficiency comparison honest.
        self._cx = cover.centroids[:, 0].tolist()
        self._cy = cover.centroids[:, 1].tolist()
        self._models = list(cover.models)
        #: O, the cover's models: what one evaluation reads.
        self.size = len(self._models)

    @property
    def cover(self) -> ModelCover:
        return self._cover

    def process(self, query: QueryTuple) -> QueryResult:
        cx, cy = self._cx, self._cy
        qx, qy = query.x, query.y
        best = 0
        dx = cx[0] - qx
        dy = cy[0] - qy
        best_d2 = dx * dx + dy * dy
        for k in range(1, len(cx)):
            dx = cx[k] - qx
            dy = cy[k] - qy
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best_d2 = d2
                best = k
        value = self._models[best].predict(query.t, qx, qy)
        return QueryResult(query=query, value=value, support=1)

    def process_batch(self, queries: QueryBatch) -> BatchResult:
        """Vectorised cover evaluation.

        Delegates to :meth:`ModelCover.predict_batch`: one ``(m, O)``
        distance matrix assigns every query its owning centroid, then
        each model evaluates all of its assigned queries in a single
        ``predict_batch`` call — the matrix-op path a 1200-cell heatmap
        grid wants, instead of 1200 interpreted centroid scans.
        """
        m = len(queries)
        values = self._cover.predict_batch(queries.t, queries.x, queries.y)
        # The cover always answers (support = the one owning model); a NaN
        # prediction is still an answer, so pass the mask explicitly.
        return BatchResult(
            queries,
            values,
            np.ones(m, dtype=np.int64),
            answered=np.ones(m, dtype=bool),
        )
