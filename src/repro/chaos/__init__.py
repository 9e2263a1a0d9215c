"""repro.chaos -- deterministic fault injection and invariant checking.

The paper's central claim is that the standby IMCS stays transactionally
consistent at every published QuerySCN no matter how redo apply is
perturbed: worker skew, shipping gaps, instance restarts, role
transitions.  This package turns that claim into a first-class, testable
property:

* :mod:`repro.chaos.sites` -- named injection sites that pipeline
  components declare at construction (zero-cost no-ops until a fault is
  installed);
* :mod:`repro.chaos.faults` -- composable fault primitives (drop, delay,
  duplicate, reorder, stall, partition, crash/restart) plus retry/
  timeout/backoff wrappers;
* :mod:`repro.chaos.plan` -- a :class:`FaultPlan` scheduling faults
  deterministically off the simulated clock, replayable from a seed;
* :mod:`repro.chaos.invariants` -- the consistency checkers (standby scan
  equals primary CR at the QuerySCN, QuerySCN monotonicity, drained
  journal/commit table, no skipped redo);
* :mod:`repro.chaos.harness` -- wires a deployment, a workload, a plan
  and a set of invariants together and emits a structured, byte-stable
  report;
* :mod:`repro.chaos.scenarios` -- canned scenarios reproducing the
  paper's hard cases (``python -m repro.chaos --scenario all``).
"""

from repro.chaos.sites import (
    Action,
    Decision,
    InjectionSite,
    PROCEED,
    SiteRegistry,
    declare,
    recording,
)
from repro.chaos.faults import (
    CrashActor,
    Delay,
    Drop,
    Duplicate,
    Fault,
    Partition,
    Reorder,
    Repeat,
    RestartStandby,
    Stall,
    Timed,
)
from repro.chaos.plan import ChaosContext, ChaosEvent, FaultPlan
from repro.chaos.invariants import (
    Invariant,
    InvariantResult,
    JournalDrained,
    NoGapSkip,
    QuerySCNMonotonic,
    StandbyMatchesPrimaryCR,
    standard_invariants,
)
from repro.chaos.harness import ChaosHarness, ScenarioReport
from repro.chaos.scenarios import SCENARIOS, Scenario, get_scenario

__all__ = [
    "Action",
    "ChaosContext",
    "ChaosEvent",
    "ChaosHarness",
    "CrashActor",
    "Decision",
    "Delay",
    "Drop",
    "Duplicate",
    "Fault",
    "FaultPlan",
    "InjectionSite",
    "Invariant",
    "InvariantResult",
    "JournalDrained",
    "NoGapSkip",
    "PROCEED",
    "Partition",
    "QuerySCNMonotonic",
    "Reorder",
    "Repeat",
    "RestartStandby",
    "SCENARIOS",
    "Scenario",
    "ScenarioReport",
    "SiteRegistry",
    "Stall",
    "StandbyMatchesPrimaryCR",
    "Timed",
    "declare",
    "get_scenario",
    "recording",
    "standard_invariants",
]
