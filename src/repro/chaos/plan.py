"""Deterministic fault schedules.

A :class:`FaultPlan` is a list of ``(simulated time, fault)`` entries.
Arming the plan registers each trigger with the deployment's scheduler via
``call_at``, so fault firing interleaves with the pipeline exactly the
same way on every run with the same seed -- chaos runs are replayable.

:func:`random_plan` draws a plan from a seeded RNG using only faults the
system is expected to survive (drops are FAL-healed, duplicates are
idempotently discarded, stalls and crashes recover), which is what the
seeded property test leans on: *no* recoverable plan may break the golden
invariant.
"""

from __future__ import annotations

import random
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


# ----------------------------------------------------------------------
# seeded random plans (property testing)
# ----------------------------------------------------------------------
#: Fault kinds every random plan may draw from -- all recoverable.
RECOVERABLE_KINDS = (
    "ship_drop",
    "ship_delay",
    "ship_duplicate",
    "ship_reorder",
    "receive_drop",
    "worker_stall",
    "publish_stall",
    "flush_stall",
    "worker_crash_restart",
    "standby_restart",
)


def random_plan(
    seed: int,
    duration: float,
    n_faults: Optional[int] = None,
    n_workers: int = 4,
    kinds: tuple[str, ...] = RECOVERABLE_KINDS,
) -> FaultPlan:
    """Draw a recoverable fault plan from ``seed``.

    Fault times land in ``(0, duration)``; every primitive used here is
    one the pipeline is designed to survive, so the golden invariant must
    hold for *any* seed.
    """
    rng = random.Random(seed)
    if n_faults is None:
        n_faults = rng.randint(2, 6)
    plan = FaultPlan()
    for __ in range(n_faults):
        at = rng.uniform(duration * 0.05, duration * 0.95)
        kind = rng.choice(kinds)
        if kind == "ship_drop":
            fault: F.Fault = F.Drop("redo.ship", count=rng.randint(1, 3))
        elif kind == "ship_delay":
            fault = F.Delay(
                "redo.ship", by=rng.uniform(0.01, 0.2), count=rng.randint(1, 4)
            )
        elif kind == "ship_duplicate":
            fault = F.Duplicate("redo.ship", count=rng.randint(1, 3))
        elif kind == "ship_reorder":
            fault = F.Reorder(
                "redo.ship", count=2 * rng.randint(1, 2),
                overtake=rng.uniform(0.01, 0.05),
            )
        elif kind == "receive_drop":
            fault = F.Drop("redo.receive", count=rng.randint(1, 2))
        elif kind == "worker_stall":
            fault = F.Stall("adg.apply_worker", count=rng.randint(5, 50))
        elif kind == "publish_stall":
            fault = F.Stall("adg.queryscn_publish", count=rng.randint(1, 10))
        elif kind == "flush_stall":
            fault = F.Stall("flush.worklink", count=rng.randint(1, 20))
        elif kind == "worker_crash_restart":
            fault = F.CrashActor(
                f"standby-1-recovery-worker-{rng.randrange(n_workers)}",
                restart_after=rng.uniform(0.05, 0.3),
            )
        elif kind == "standby_restart":
            fault = F.RestartStandby()
        else:  # pragma: no cover - keep kinds exhaustive
            raise ValueError(f"unknown fault kind {kind!r}")
        plan.at(at, fault)
    return plan
