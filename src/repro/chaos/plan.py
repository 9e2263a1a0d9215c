"""Deterministic fault schedules.

A :class:`FaultPlan` is a list of ``(simulated time, fault)`` entries.
Arming the plan registers each trigger with the deployment's scheduler via
``call_at``, so fault firing interleaves with the pipeline exactly the
same way on every run with the same seed -- chaos runs are replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chaos import faults as F
from repro.chaos.sites import SiteRegistry
from repro.sim.scheduler import Scheduler


@dataclass(frozen=True, slots=True)
class ChaosEvent:
    """One thing that happened during a chaos run (armed/fired/cancelled)."""

    time: float
    kind: str        # "arm" | "fire" | "cancel" | "note"
    description: str

    def render(self) -> str:
        return f"[{self.time:12.6f}] {self.kind:<6} {self.description}"


@dataclass
class ChaosContext:
    """Everything a triggering fault may touch, plus the event record."""

    deployment: object
    registry: SiteRegistry
    sched: Scheduler
    events: list[ChaosEvent] = field(default_factory=list)
    #: Scenario scratch space (e.g. the post-failover primary).
    extra: dict = field(default_factory=dict)

    def note(self, kind: str, description: str) -> None:
        self.events.append(ChaosEvent(self.sched.now, kind, description))


@dataclass(frozen=True, slots=True)
class PlannedFault:
    time: float
    fault: F.Fault


class FaultPlan:
    """An ordered, deterministic schedule of faults."""

    def __init__(self, entries: Optional[list[PlannedFault]] = None) -> None:
        self.entries: list[PlannedFault] = list(entries or [])
        self._armed = False

    def at(self, time: float, fault: F.Fault) -> "FaultPlan":
        """Schedule ``fault`` to trigger at simulated ``time``; chainable."""
        self.entries.append(PlannedFault(time, fault))
        return self

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def describe(self) -> list[str]:
        return [
            f"t={entry.time:g}: {entry.fault.describe()}"
            for entry in sorted(self.entries, key=lambda e: e.time)
        ]

    def arm(self, ctx: ChaosContext) -> None:
        """Register every fault trigger with the simulated scheduler."""
        if self._armed:
            raise RuntimeError("plan already armed; plans are single-use")
        self._armed = True
        for entry in sorted(self.entries, key=lambda e: e.time):
            ctx.sched.call_at(
                entry.time,
                lambda fault=entry.fault: fault.trigger(ctx),
            )
