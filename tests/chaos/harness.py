"""The chaos harness: deployment + workload + fault plan + invariants.

:func:`run_scenario` runs one scenario end to end:

1. build the deployment with a :class:`~repro.chaos.sites.SiteRegistry`
   recording and a :class:`~repro.obs.registry.MetricsRegistry`
   collecting, so every pipeline component's injection sites *and*
   instruments are captured (the deployment arms the redo-lifecycle
   tracer on the collecting registry);
2. arm the scenario's :class:`FaultPlan` on the simulated scheduler;
3. drive the scenario's workload;
4. catch the standby up and evaluate every invariant;
5. emit a :class:`ScenarioReport` whose rendering is **byte-stable**: it
   contains only values derived from the simulation (no wall clock, no
   ids, no unordered iteration), so two runs with the same seed produce
   identical reports -- the replayability contract chaos debugging needs.

A :class:`FaultPlan` is a list of ``(simulated time, fault)`` entries.
Arming it registers each trigger with the deployment's scheduler via
``call_at``, so fault firing interleaves with the pipeline exactly the
same way on every run with the same seed.

The report's redo lag is read from the lifecycle tracer, not polled: the
harness adds no actor of its own to the scheduler, so observing a
scenario does not move it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.chaos.sites import SiteRegistry, recording
from repro.obs.registry import MetricsSnapshot
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from tests.chaos.faults import Fault
    from tests.chaos.invariants import InvariantResult
    from tests.chaos.scenarios import Scenario


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
    #: Per-run scenario state (row ids, the router, the post-failover
    #: primary, ...).
    extra: dict = field(default_factory=dict)

    def note(self, kind: str, description: str) -> None:
        self.events.append(ChaosEvent(self.sched.now, kind, description))


class FaultPlan:
    """An ordered, deterministic schedule of faults."""

    def __init__(self) -> None:
        self.entries: list[tuple[float, "Fault"]] = []
        self._armed = False

    def at(self, time: float, fault: "Fault") -> "FaultPlan":
        """Schedule ``fault`` to trigger at simulated ``time``; chainable."""
        self.entries.append((time, fault))
        return self

    def _ordered(self) -> list[tuple[float, "Fault"]]:
        return sorted(self.entries, key=lambda entry: entry[0])

    def describe(self) -> list[str]:
        return [
            f"t={time:g}: {fault.describe()}"
            for time, fault in self._ordered()
        ]

    def arm(self, ctx: ChaosContext) -> None:
        """Register every fault trigger with the simulated scheduler."""
        if self._armed:
            raise RuntimeError("plan already armed; plans are single-use")
        self._armed = True
        for time, fault in self._ordered():
            ctx.sched.call_at(time, lambda fault=fault: fault.trigger(ctx))


@dataclass
class ScenarioReport:
    """Everything one chaos run produced, rendered deterministically."""

    scenario: str
    description: str
    seed: int
    plan: list[str]
    events: list[ChaosEvent]
    invariants: list["InvariantResult"]
    stats: dict[str, int]
    #: Worst generated-vs-published SCN gap from the moment the scenario
    #: starts driving (``RedoLifecycleTracer.worst_scn_gap``), and the
    #: deployment's redo lag once it has finished.
    lag_peak: float = 0.0
    lag_final: int = 0
    finished_at: float = 0.0
    #: Metrics snapshot of the run's collecting registry (None when the
    #: report was assembled without one, e.g. in unit tests).
    metrics: Optional[MetricsSnapshot] = None

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.invariants)

    @property
    def faults_fired(self) -> int:
        return sum(1 for event in self.events if event.kind == "fire")

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"description: {self.description}",
            f"seed: {self.seed}",
            f"finished_at: {self.finished_at:.6f}",
            "",
            f"plan ({len(self.plan)} faults):",
        ]
        lines += [f"  {entry}" for entry in self.plan]
        lines += ["", f"events ({len(self.events)}):"]
        lines += [f"  {event.render()}" for event in self.events]
        lines += ["", "stats:"]
        lines += [
            f"  {key} = {self.stats[key]}" for key in sorted(self.stats)
        ]
        lines += [
            "",
            f"lag: peak {self.lag_peak:.0f} SCNs, "
            f"final {self.lag_final} SCNs",
        ]
        if self.metrics is not None:
            traced = self.metrics.total("lifecycle.tracked")
            completed = self.metrics.total("lifecycle.completed")
            lines += [
                "",
                f"metrics: {len(self.metrics)} instruments, "
                f"{int(completed)}/{int(traced)} redo records traced to "
                "publication",
            ]
        lines += ["", f"invariants ({len(self.invariants)}):"]
        lines += [f"  {result.render()}" for result in self.invariants]
        lines += [
            "",
            f"verdict: {'PASS' if self.passed else 'FAIL'} "
            f"({self.faults_fired} fault events fired)",
            "",
        ]
        return "\n".join(lines)


def run_scenario(scenario: "Scenario", seed: int = 7) -> ScenarioReport:
    """Run ``scenario`` once under ``seed`` and report what happened."""
    registry = SiteRegistry()
    metrics = obs.MetricsRegistry()
    with recording(registry), obs.collecting(metrics):
        ctx = scenario.build(registry, seed)
        plan = scenario.plan()
        plan.arm(ctx)
        drive_start = ctx.sched.now
        scenario.drive(scenario, ctx)
        scenario.finish(ctx)
        results = [inv.check(ctx) for inv in scenario.invariants]
    deployment = ctx.deployment
    return ScenarioReport(
        scenario=scenario.name,
        description=scenario.description,
        seed=seed,
        plan=plan.describe(),
        events=list(ctx.events),
        invariants=results,
        stats=scenario.stats(ctx),
        lag_peak=deployment.obs.tracer.worst_scn_gap(after=drive_start),
        lag_final=deployment.redo_lag_scns,
        finished_at=deployment.sched.now,
        metrics=metrics.snapshot(),
    )
