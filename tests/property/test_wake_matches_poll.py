"""Property: parking an idle actor changes nothing but the dispatch count.

The same seeded deployment runs twice: once under the scheduler, whose
pipeline actors park until a producer wakes them, and once under
``tests/polling_scheduler.py``, whose actors poll every ``idle_backoff``
as they used to.  Every busy step -- its sim time, its actor and its cost
-- must be the same in the same order, and so must every QuerySCN
publication.  A wake that lands a tick late (or early onto a busy step)
shows up as a step at another time, and every jitter draw after it moves.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosHarness, get_scenario
from repro.db import Deployment, InMemoryService
from repro.sim.scheduler import Scheduler
from repro.workload import OLTAPConfig, OLTAPWorkload

from tests.db.conftest import small_config
from tests.polling_scheduler import PollingScheduler


def recording(base):
    """``base`` with every registered actor's busy steps recorded."""

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.busy: list[tuple[float, str, float]] = []

        def add_actor(self, actor, start_at=None):
            if "step" not in vars(actor):
                step = actor.step

                def traced(sched, step=step, name=actor.name):
                    cost = step(sched)
                    if cost is not None:
                        self.busy.append((sched.now, name, cost))
                    return cost

                actor.step = traced
            super().add_actor(actor, start_at)

    return Recording


def run_under(base, drive):
    """Run ``drive`` with every ``Deployment.build`` on a recording
    ``base`` scheduler; returns (what drive returned, the scheduler)."""
    built = []
    scheduler = recording(base)

    def make(*args, **kwargs):
        built.append(scheduler(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.db.deployment.Scheduler", make)
        result = drive()
    (sched,) = built
    return result, sched


def assert_same_run(drive):
    """Run ``drive`` under both schedulers; returns what it returned."""
    woken, parked = run_under(Scheduler, drive)
    polled, polling = run_under(PollingScheduler, drive)
    assert parked.busy == polling.busy
    assert woken == polled
    assert parked.now == polling.now
    # the comparison means something only if polls were saved
    assert polling.idle_steps > 0
    return woken


def oltap(
    seed: int,
    n_instances: int = 1,
    mira: bool = False,
    mix: dict | None = None,
    population_workers: int = 1,
    **apply,
):
    """A small OLTAP run with updates, inserts and standby scans on one
    member (scaled out to ``n_instances`` when > 1); ``mix`` overrides
    ``OLTAPConfig`` fields and ``apply`` ``ApplyConfig`` fields."""

    def drive():
        config = small_config()
        config.seed = seed
        config.imcs.population_workers = population_workers
        for field, value in apply.items():
            setattr(config.apply, field, value)
        deployment = Deployment.build(config=config)
        if n_instances > 1:
            deployment.add_standby_cluster(n_instances, mira=mira)
        workload = OLTAPWorkload(deployment, OLTAPConfig(**{
            "n_rows": 300, "n_number_columns": 4, "n_varchar_columns": 4,
            "rows_per_block": 32, "target_ops_per_sec": 400.0,
            "duration": 0.6, "pct_update": 0.5, "pct_insert": 0.2,
            "pct_scan": 0.02, "seed": seed, **(mix or {}),
        }))
        workload.setup(service=InMemoryService.BOTH)
        workload.start()
        workload.run()
        workload.stop()
        deployment.catch_up()
        members = [deployment.standby, *deployment.member().peers]
        return {
            "query_scn": [list(m.query_scn.history) for m in members],
            "worker_flushed": deployment.standby.flush.nodes_flushed_by_workers,
        }

    return drive


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_workers=st.sampled_from([1, 4]),
    population_workers=st.sampled_from([1, 2]),
)
# one recovery worker: the distributor's unsplit queue; two population
# workers: one that sweeps and one that only waits for tasks
@example(seed=7, n_workers=1, population_workers=2)
def test_single_standby_oltap(seed, n_workers, population_workers):
    assert_same_run(oltap(
        seed, n_workers=n_workers, population_workers=population_workers,
    ))


def test_workers_help_drain_a_long_worklink():
    """One-statement transactions at 2 000 ops/s checked every 50 ms, and
    a coordinator that drains one node per step: the worklink outlives the
    step that chopped it, so a worker parked a few microseconds ahead must
    be woken to it."""
    run = assert_same_run(oltap(
        5,
        mix={
            "target_ops_per_sec": 2000.0, "duration": 0.5, "pct_update": 0.7,
            "pct_insert": 0.0, "pct_scan": 0.0, "txn_statements": (1, 1),
        },
        coordinator_flush_batch=1,
        cooperative_flush_batch=1,
        coordinator_interval=0.05,
    ))
    assert run["worker_flushed"] > 0


@pytest.mark.parametrize("mira", [False, True], ids=["sira", "mira"])
def test_rac_member(mira):
    assert_same_run(oltap(11, n_instances=2, mira=mira))


@pytest.mark.parametrize(
    "scenario", ["fal_gap_storm", "checkpoint_crash", "worker_crash_flush"]
)
def test_chaos_scenario_report(scenario):
    """FAL gap healing, a standby bounced with restart checkpoints, and
    a fault armed on parked workers' site: the whole rendered report
    (events, stats, lag, invariants, the finishing time) is the same."""

    def drive():
        return ChaosHarness(get_scenario(scenario), seed=7).run().to_text()

    assert_same_run(drive)
