"""Property test: no recoverable fault plan breaks the golden invariant.

:func:`recoverable_plan` draws only faults the pipeline is designed to
survive -- drops are FAL-healed, duplicates discarded, stalls and crashes
recover -- so for *any* seed the standby must still scan exactly like a
primary consistent read at the published QuerySCN.  Each seed is a full
deployment run, so the sweep is kept small here; crank ``SEEDS`` locally
to hunt.
"""

import random

import pytest

from tests.chaos import faults as F
from tests.chaos.harness import FaultPlan, run_scenario
from tests.chaos.scenarios import BURST_GAP, Scenario

SEEDS = [0, 1, 2, 3, 4]

#: Fault kinds a drawn plan picks from -- all recoverable.
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


def recoverable_plan(seed: int, duration: float) -> FaultPlan:
    """Two to six recoverable faults drawn from ``seed``, at times in
    ``(0, duration)``."""
    rng = random.Random(seed)
    plan = FaultPlan()
    for __ in range(rng.randint(2, 6)):
        at = rng.uniform(duration * 0.05, duration * 0.95)
        kind = rng.choice(RECOVERABLE_KINDS)
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
                f"standby-1-recovery-worker-{rng.randrange(4)}",  # of its 4
                restart_after=rng.uniform(0.05, 0.3),
            )
        else:  # standby_restart
            fault = F.RestartStandby()
        plan.at(at, fault)
    return plan


def random_chaos(seed: int) -> Scenario:
    """The baseline workload under a seed-drawn recoverable fault plan,
    its faults inside the driven window (bursts * burst gap)."""
    duration = Scenario.bursts * BURST_GAP
    return Scenario(
        "random_chaos", "seeded random recoverable faults",
        plan=lambda: recoverable_plan(seed, duration),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_random_recoverable_plans_never_break_the_golden_invariant(seed):
    report = run_scenario(random_chaos(seed), seed=seed)
    assert report.passed, (
        f"seed {seed} broke an invariant:\n{report.to_text()}"
    )


def test_a_drawn_plan_replays_byte_identically():
    first = run_scenario(random_chaos(123), seed=123)
    again = run_scenario(random_chaos(123), seed=123)
    assert first.to_text() == again.to_text()
