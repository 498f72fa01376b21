"""Multi-client fleet simulation — beyond the paper's single object.

Section 2.2 assumes "a single mobile object ... continuously querying
for pollution around it"; a deployed platform serves many.  The fleet
simulator runs N clients (any mix of baseline and model-cache) against
one server, each on its own trajectory and cellular link, and aggregates
the traffic ledgers — quantifying how the model-cache win scales with
fleet size: the server-side cover is computed once and every cached
client amortises it, while baseline traffic grows linearly per client.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.client.baseline import BaselineClient
from repro.client.modelcache import ModelCacheClient
from repro.data.tuples import QueryTuple
from repro.network.link import GPRS, BearerProfile, CellularLink
from repro.network.stats import TrafficStats
from repro.query.continuous import uniform_query_tuples, waypoint_trajectory
from repro.server.async_server import EngineQueryService

Point = Tuple[float, float]


@dataclass(frozen=True)
class FleetMember:
    """One mobile object: a route, a query cadence, a client strategy."""

    name: str
    waypoints: Tuple[Point, ...]
    use_model_cache: bool = True
    interval_s: float = 60.0
    n_queries: int = 60

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError(f"{self.name}: a route needs at least two waypoints")
        if self.interval_s <= 0:
            raise ValueError(f"{self.name}: interval must be positive")
        if self.n_queries < 1:
            raise ValueError(f"{self.name}: need at least one query")

    def queries(self, t_start: float) -> List[QueryTuple]:
        duration = self.n_queries * self.interval_s
        traj = waypoint_trajectory(list(self.waypoints), t_start, t_start + duration)
        return uniform_query_tuples(traj, t_start, self.interval_s, self.n_queries)


@dataclass
class MemberReport:
    """Per-member outcome of a fleet run."""

    name: str
    use_model_cache: bool
    stats: TrafficStats
    answered: int


@dataclass
class SubscriptionMemberReport:
    """Per-member outcome of a standing-subscription run."""

    name: str
    subscription_id: int
    initial_answered: int
    updates_received: int
    readings_changed: int
    answered: int


@dataclass
class SubscriptionFleetReport:
    """Aggregate outcome of a standing-subscription fleet run."""

    members: List[SubscriptionMemberReport]
    maintenance_passes: int
    quiet_passes: int
    queries_reexecuted: int


@dataclass
class FleetReport:
    """Aggregate outcome of a fleet run."""

    members: List[MemberReport]
    server_covers_served: int
    server_values_served: int

    def total_stats(self) -> TrafficStats:
        total = TrafficStats()
        for m in self.members:
            total = total.merged_with(m.stats)
        return total

    def stats_by_strategy(self) -> Tuple[TrafficStats, TrafficStats]:
        """(baseline aggregate, model-cache aggregate)."""
        base, cache = TrafficStats(), TrafficStats()
        for m in self.members:
            if m.use_model_cache:
                cache = cache.merged_with(m.stats)
            else:
                base = base.merged_with(m.stats)
        return base, cache


class FleetSimulator:
    """Runs a fleet of clients against one EnviroMeter service."""

    def __init__(
        self,
        service: EngineQueryService,
        bearer: BearerProfile = GPRS,
    ) -> None:
        self.service = service
        self.bearer = bearer

    def _run_member(self, member: FleetMember, t_start: float) -> MemberReport:
        link = CellularLink(self.bearer)
        client = (
            ModelCacheClient(self.service, link)
            if member.use_model_cache
            else BaselineClient(self.service, link)
        )
        values = client.run_continuous(member.queries(t_start))
        return MemberReport(
            name=member.name,
            use_model_cache=member.use_model_cache,
            stats=client.stats,
            answered=sum(v is not None for v in values),
        )

    def _check_members(self, members: Sequence[FleetMember]) -> None:
        if not members:
            raise ValueError("fleet needs at least one member")
        names = [m.name for m in members]
        if len(names) != len(set(names)):
            raise ValueError("fleet member names must be unique")

    def _report(self, reports: List[MemberReport]) -> FleetReport:
        served = self.service.engine.metrics["served"]
        return FleetReport(reports, served.covers, served.values)

    def run(self, members: Sequence[FleetMember], t_start: float) -> FleetReport:
        """Run every member's continuous query; returns the full report.

        Members run sequentially against the shared server — the traffic
        and cover-reuse accounting is identical to an interleaved run
        because the server's covers depend only on ingested data, not on
        request order within the window.
        """
        self._check_members(members)
        reports = [self._run_member(member, t_start) for member in members]
        return self._report(reports)

    def run_concurrent(
        self,
        members: Sequence[FleetMember],
        t_start: float,
        max_workers: Optional[int] = None,
    ) -> FleetReport:
        """:meth:`run` with members on concurrent threads — the load shape
        a deployed platform actually sees, served by the thread-safe
        serving layer.

        Each member keeps its own client and link (per-thread state), so
        the only shared object is the server; per-member answers and
        traffic ledgers are identical to the sequential run because every
        request is answered against a pinned snapshot.  Reports
        come back in member order.
        """
        self._check_members(members)
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            reports = list(pool.map(lambda member: self._run_member(member, t_start), members))
        return self._report(reports)

    def run_subscriptions(
        self,
        members: Sequence[FleetMember],
        t_start: float,
        ingest_batches: Sequence = (),
    ) -> SubscriptionFleetReport:
        """Register every member's route as a standing subscription, then
        stream ``ingest_batches`` through the server, polling between
        batches.

        The push-era counterpart of :meth:`run`: instead of every member
        re-asking its whole route per poll, the server's registry
        re-executes only the slices each ingest dirtied and members
        receive delta updates — the report's ``queries_reexecuted`` vs.
        ``len(members) * n_queries * batches`` is the saving.  The
        service must carry a registry (its ``subscriptions``); routes
        are answered with the service's method.
        """
        self._check_members(members)
        registry = self.service.subscriptions
        if registry is None:
            raise ValueError("the service carries no subscription registry")
        subs = {
            member.name: registry.subscribe(
                list(member.waypoints),
                t_start,
                interval_s=member.interval_s,
                count=member.n_queries,
                method=self.service.method,
            )
            for member in members
        }
        received = {m.name: 0 for m in members}
        changed = {m.name: 0 for m in members}
        for batch in ingest_batches:
            self.service.ingest(batch)
            for member in members:
                for update in registry.poll(subs[member.name].id):
                    received[member.name] += 1
                    changed[member.name] += len(update.indices)
        reports = []
        for member in members:
            sub = subs[member.name]
            values, _support = sub.answer()
            reports.append(
                SubscriptionMemberReport(
                    name=member.name,
                    subscription_id=sub.id,
                    initial_answered=int(
                        np.isfinite(np.asarray(sub.initial.values)).sum()
                    ),
                    updates_received=received[member.name],
                    readings_changed=changed[member.name],
                    answered=int(np.isfinite(values).sum()),
                )
            )
        stats = registry.stats
        return SubscriptionFleetReport(
            members=reports,
            maintenance_passes=stats.maintains,
            quiet_passes=stats.quiet_passes,
            queries_reexecuted=stats.queries_reexecuted,
        )


def commuter_fleet(
    n: int,
    bbox,
    use_model_cache: bool = True,
    seed: int = 0,
    n_queries: int = 60,
) -> List[FleetMember]:
    """N commuters on random straight routes across a bounding box."""
    import random

    if n < 1:
        raise ValueError("need at least one commuter")
    rng = random.Random(seed)

    def corner() -> Point:
        return (
            bbox.min_x + rng.random() * bbox.width,
            bbox.min_y + rng.random() * bbox.height,
        )

    return [
        FleetMember(
            name=f"commuter-{i}",
            waypoints=(corner(), corner()),
            use_model_cache=use_model_cache,
            n_queries=n_queries,
        )
        for i in range(n)
    ]

