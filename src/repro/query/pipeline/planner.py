"""The single statistics-backed planner every query path consults.

:class:`PipelinePlanner` wraps the cost model of
:class:`repro.query.planner.QueryPlanner` (the per-window Section 2.2
method families, calibrated in abstract scan units) with the two things
the pipeline adds:

* **one epoch-keyed verdict cache** — ``method="auto"`` is planned once
  per ``(shard, window, content stamp, exactness)`` and the verdict is
  stored in the shared :class:`~repro.query.pipeline.cache.ProcessorCache`,
  so ingest invalidates plans exactly like it invalidates processors;
* **runtime feedback** — the executor reports every operator's observed
  wall time into a :class:`PlannerFeedback`, and subsequent ``auto``
  decisions rank candidate methods by *observed* seconds-per-query where
  measurements exist, falling back to the abstract cost model (scaled to
  the observed regime) where they don't.  The feedback loop is
  deliberately coarse — an exponentially-weighted mean per method — its
  job is to fix the *ordering* when the static constants drift from the
  machine's reality, not to predict milliseconds.

Feedback can never break correctness: every exact method merges to
byte-identical answers, so recalibration only ever moves cost, and the
exact-vs-model split stays governed by the profile's
``needs_exact_average``.
"""

from __future__ import annotations

import statistics
import threading
from typing import Callable, Dict, Optional

from repro.core.adkmn import AdKMNConfig
from repro.data.tuples import TupleBatch
from repro.query.pipeline.cache import ProcessorCache
from repro.query.planner import PlanEstimate, QueryPlanner, QueryProfile

__all__ = ["PlannerFeedback", "PipelinePlanner"]


class PlannerFeedback:
    """Exponentially-weighted observed seconds **per estimated scan
    unit**, per method — the same axis the static cost model prices in.

    Each observation divides an operator's wall time by the *method's
    own* estimated units for that op (``n_queries × est units/query``,
    from the estimates the verdict was planned with).  That keeps every
    method's rate on one axis: a naive scan's units are the slice rows,
    an index scan's are its (much smaller) ``hit_fraction·H + log H``
    — normalising both by rows would deflate index rates by
    ~``hit_fraction`` and invert the ordering.  It also makes
    observations transferable across slice sizes: a cheap scan over a
    50-row slice cannot make a method look cheap for a 5000-row slice.

    Thread-safe; the executor calls :meth:`observe` from pool threads.
    ``alpha`` is the EWMA weight of the newest observation.
    """

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._sec_per_unit: Dict[str, float] = {}
        self._observations: Dict[str, int] = {}
        self._lock = threading.Lock()

    def observe(
        self,
        method: str,
        n_queries: int,
        elapsed_s: float,
        units_per_query: float = 1.0,
    ) -> None:
        """Record one executed operator's wall time.

        ``units_per_query`` is the method's estimated cost for this op
        in abstract scan units (``PlanEstimate.per_query_cost``) — the
        load the elapsed time is normalised by."""
        if n_queries < 1 or elapsed_s < 0.0 or units_per_query <= 0.0:
            return
        spu = elapsed_s / (n_queries * units_per_query)
        with self._lock:
            prev = self._sec_per_unit.get(method)
            self._sec_per_unit[method] = (
                spu if prev is None else (1.0 - self.alpha) * prev + self.alpha * spu
            )
            self._observations[method] = self._observations.get(method, 0) + 1

    def sec_per_unit(self, method: str) -> Optional[float]:
        with self._lock:
            return self._sec_per_unit.get(method)

    def observations(self, method: str) -> int:
        with self._lock:
            return self._observations.get(method, 0)

    def adjust(self, estimates: Dict[str, PlanEstimate]) -> Dict[str, float]:
        """Comparable per-method costs: estimated units × observed cost
        per unit.

        Methods with measurements use their own observed seconds-per-unit;
        the rest use the median observed rate, so every score lives on
        one axis and the slice's own unit estimate stays in the product.
        With no measurements at all this is exactly the static model.
        """
        with self._lock:
            known = {
                m: self._sec_per_unit[m]
                for m in estimates
                if m in self._sec_per_unit
            }
        if not known:
            return {m: est.per_query_cost for m, est in estimates.items()}
        default = statistics.median(known.values())
        return {
            m: est.per_query_cost * known.get(m, default)
            for m, est in estimates.items()
        }

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                m: {
                    "sec_per_unit": self._sec_per_unit[m],
                    "observations": self._observations.get(m, 0),
                }
                for m in sorted(self._sec_per_unit)
            }


class PipelinePlanner:
    """Plans ``method="auto"`` per bound window slice, with feedback.

    ``profile`` carries the workload shape (amortisation horizon and the
    exactness requirement); ``radius_m`` overrides the profile radius for
    cost purposes (the engine's query radius is authoritative);
    ``cache`` is the shared epoch-keyed store the verdicts live in.
    """

    #: Default bound on cached verdicts + estimates.  Verdicts are tiny
    #: (a method name per (shard, window, exactness)), so the planner
    #: affords a generous bound — and deliberately does NOT share the
    #: engines' processor cache: one verdict key per (shard, window)
    #: would otherwise compete with the covers and indexes themselves
    #: and LRU-thrash the expensive entries out on wide plans.
    DEFAULT_VERDICT_CAPACITY = 1024

    def __init__(
        self,
        profile: QueryProfile,
        cache: Optional[ProcessorCache] = None,
        config: Optional[AdKMNConfig] = None,
        radius_m: Optional[float] = None,
        feedback: Optional[PlannerFeedback] = None,
    ) -> None:
        self.profile = profile
        self.config = config or AdKMNConfig()
        self.radius_m = profile.radius_m if radius_m is None else radius_m
        self.feedback = feedback if feedback is not None else PlannerFeedback()
        self._cache = cache if cache is not None else ProcessorCache(
            self.DEFAULT_VERDICT_CAPACITY
        )
        # Priced estimates memo for explain/introspection and feedback
        # unit axes, keyed identically to the verdicts.
        self._estimates_memo = ProcessorCache(self.DEFAULT_VERDICT_CAPACITY)

    def _profile_for(self, exact: bool) -> QueryProfile:
        return QueryProfile(
            expected_queries=self.profile.expected_queries,
            needs_exact_average=exact or self.profile.needs_exact_average,
            radius_m=self.radius_m,
        )

    def _pick(self, estimates: Dict[str, PlanEstimate]) -> str:
        """The cheapest method, feedback-recalibrated where that is safe.

        Staged decision, so that answers can never depend on observed
        wall clocks: the **exact-vs-model boundary** (which changes query
        *answers* — a model evaluation is not a radius average) is decided
        by the static cost model alone, deterministically; the choice
        **among exact scan kinds** recalibrates from runtime feedback,
        since every candidate provably produces the same bytes — exact
        methods answer through the merge path, whose canonical
        stream-order gather is scan-kind-invariant.  Ties break towards
        the earliest candidate in cost-model order (naive first),
        matching :meth:`QueryPlanner.choose`.
        """

        def argmin(scores: Dict[str, float]) -> str:
            best: Optional[str] = None
            best_cost = float("inf")
            for method, cost in scores.items():
                if cost < best_cost:
                    best, best_cost = method, cost
            assert best is not None  # naive is always offered
            return best

        static = argmin({m: e.per_query_cost for m, e in estimates.items()})
        if static == "model-cover":
            return static
        exact = {m: e for m, e in estimates.items() if m != "model-cover"}
        return argmin(self.feedback.adjust(exact))

    def estimates_for(
        self, sub: TupleBatch, exact: bool
    ) -> Dict[str, PlanEstimate]:
        """Fresh per-method estimates for one window slice (uncached)."""
        planner = QueryPlanner(sub, config=self.config)
        return planner.estimates(self._profile_for(exact))

    def method_for(
        self,
        shard: Optional[int],
        c: int,
        stamp: int,
        sub: TupleBatch,
        exact: bool,
        seed_cover: Optional[Callable[[object], None]] = None,
    ) -> str:
        """The planned method for window ``c`` of ``shard`` at ``stamp``.

        Planned once per ``(shard, window, stamp, exactness)`` and cached
        epoch-keyed; ``exact=True`` restricts the plan to raw-data
        methods (scatter scans must merge exactly).  When the verdict is
        model-cover, ``seed_cover`` receives the processor the pricing
        fit already paid for, so execution never runs the same fit twice.
        Feedback recalibrates only the choice among exact methods — see
        :meth:`_pick` for the determinism boundary.
        The priced estimates are memoised alongside the verdict
        (:meth:`cached_estimates`), so ``explain`` never re-runs a fit
        just to display a cost column.
        """

        def build() -> str:
            profile = self._profile_for(exact)
            planner = QueryPlanner(sub, config=self.config)
            estimates = planner.estimates(profile)
            self._estimates_memo.insert(
                ("estimates", shard, int(c), bool(exact)), stamp, estimates
            )
            method = self._pick(estimates)
            if method == "model-cover" and seed_cover is not None:
                seed_cover(planner.processor_for(profile))
            return method

        return self._cache.get_or_build(("plan", shard, int(c), bool(exact)), stamp, build)

    def eval_units(self, estimate: PlanEstimate) -> float:
        """The evaluation-only share of an estimate, in scan units per
        query: ``per_query_cost`` minus the amortised preparation share.
        This is what the executor's timed region actually performs —
        preparation (index build, cover fit) runs *outside* the timer —
        so it is the correct normaliser for feedback observations."""
        prep_share = estimate.preparation_cost / self.profile.expected_queries
        return max(estimate.per_query_cost - prep_share, 1e-9)

    def cached_estimates(
        self, shard: Optional[int], c: int, stamp: int, exact: bool
    ) -> Optional[Dict[str, PlanEstimate]]:
        """The estimates :meth:`method_for` memoised for this verdict,
        or None when they were never computed or have been evicted."""
        return self._estimates_memo.peek(
            ("estimates", shard, int(c), bool(exact)), stamp
        )

    def record(
        self,
        method: str,
        n_queries: int,
        elapsed_s: float,
        units_per_query: float,
    ) -> None:
        """Executor hook: feed an observed operator timing back in."""
        self.feedback.observe(method, n_queries, elapsed_s, units_per_query)
