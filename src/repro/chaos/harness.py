"""The chaos harness: deployment + workload + fault plan + invariants.

:class:`ChaosHarness` runs one scenario end to end:

1. build the deployment with a :class:`~repro.chaos.sites.SiteRegistry`
   recording and a :class:`~repro.obs.registry.MetricsRegistry`
   collecting, so every pipeline component's injection sites *and*
   instruments are captured (the deployment arms the redo-lifecycle
   tracer on the collecting registry);
2. arm the scenario's :class:`~repro.chaos.plan.FaultPlan` on the
   simulated scheduler;
3. drive the scenario's workload;
4. catch the standby up and evaluate every invariant;
5. emit a :class:`ScenarioReport` whose rendering is **byte-stable**: it
   contains only values derived from the simulation (no wall clock, no
   ids, no unordered iteration), so two runs with the same seed produce
   identical reports -- the replayability contract chaos debugging needs.

The report's redo lag is read from the lifecycle tracer, not polled: the
harness adds no actor of its own to the scheduler, so observing a
scenario does not move it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.chaos.invariants import InvariantResult
from repro.chaos.plan import ChaosContext, ChaosEvent
from repro.chaos.sites import SiteRegistry, recording
from repro.obs.registry import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.scenarios import Scenario


@dataclass
class ScenarioReport:
    """Everything one chaos run produced, rendered deterministically."""

    scenario: str
    description: str
    seed: int
    plan: list[str]
    events: list[ChaosEvent]
    invariants: list[InvariantResult]
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


class ChaosHarness:
    """Runs one scenario under one seed; reusable across seeds."""

    def __init__(self, scenario: "Scenario", seed: int = 7) -> None:
        self.scenario = scenario
        self.seed = seed

    def run(self) -> ScenarioReport:
        scenario = self.scenario
        registry = SiteRegistry()
        metrics = obs.MetricsRegistry()
        with recording(registry), obs.collecting(metrics):
            deployment = scenario.build(self.seed)
            ctx = ChaosContext(
                deployment=deployment,
                registry=registry,
                sched=deployment.sched,
            )
            plan = scenario.plan(self.seed)
            plan.arm(ctx)
            drive_start = deployment.sched.now
            scenario.drive(ctx)
            scenario.finish(ctx)
            results = [inv.check(ctx) for inv in scenario.invariants(ctx)]
        return ScenarioReport(
            scenario=scenario.name,
            description=scenario.description,
            seed=self.seed,
            plan=plan.describe(),
            events=list(ctx.events),
            invariants=results,
            stats=scenario.stats(ctx),
            lag_peak=deployment.obs.tracer.worst_scn_gap(after=drive_start),
            lag_final=deployment.redo_lag_scns,
            finished_at=deployment.sched.now,
            metrics=metrics.snapshot(),
        )


def run_scenario(scenario: "Scenario", seed: int = 7) -> ScenarioReport:
    """Convenience wrapper: one scenario, one seed, one report."""
    return ChaosHarness(scenario, seed).run()
