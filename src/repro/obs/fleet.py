"""Per-member fleet lag sampling (the paper's Fig. 11, one line per
standby).

:class:`FleetLagSampler` is a scheduler actor that periodically records
each mounted member's published-QuerySCN lag into an ``obs`` time series
(``fleet.member.lag_series{member=...}``), so a metrics snapshot taken
at any point shows how every member of the reader farm has tracked the
primary (the router's ``fleet.member.lag_scns`` gauges move only when a
member publishes; the series also sees a member that has stopped).

``fleet`` is a :class:`~repro.db.deployment.Deployment` (duck-typed:
anything with ``members`` -- each having ``name`` and ``mounted`` -- and
``member_lag(member)`` works).
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.sim.scheduler import Actor, Scheduler


class FleetLagSampler(Actor):
    """Samples per-member published-QuerySCN lag on a fixed interval."""

    def __init__(self, fleet, interval: float = 0.05) -> None:
        self.fleet = fleet
        self.interval = interval
        self.name = "fleet-lag-sampler"
        self.node = None
        self.series = {
            member.name: obs.series(
                "fleet.member.lag_series", member=member.name
            )
            for member in fleet.members
        }

    def step(self, sched: Scheduler) -> Optional[float]:
        now = sched.now
        for member in self.fleet.members:
            if not member.mounted:
                continue
            self.series[member.name].record(
                now, self.fleet.member_lag(member)
            )
        return self.interval


__all__ = ["FleetLagSampler"]
