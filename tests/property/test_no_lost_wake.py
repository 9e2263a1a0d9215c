"""Property: a parked actor has no input waiting (no lost wake).

A parked actor leaves the scheduler until its producer wakes it, so a
producer that hands over work without waking its consumer strands that
work until something else happens to wake it.  Seeded deployments run on
a scheduler that, after every dispatch, checks each parked actor against
its input:

* a shipper is at its log's end;
* a merger's receiver holds nothing;
* a recovery worker's queue is empty and no worklink has nodes left;
* a population worker's engine has no backlog;
* a query worker's pool queue is empty;
* a coordinator is not advancing, no merger it distributes holds merged
  redo, and its consistency check is not overdue;
* a timer (heartbeat, undo retention, the population sweep) is not
  overdue.

Beside it runs the paper's quiesce invariant (III-A), checked instead of
locked: every unit a population worker's step registers on a standby
instance carries that instance's published QuerySCN -- never one in
flux -- and that QuerySCN is at or above the instance's
``population_floor``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.adg.apply import RecoveryWorker
from repro.adg.coordinator import RecoveryCoordinator
from repro.adg.merger import LogMerger
from repro.db import Deployment, InMemoryService
from repro.db.primary import HeartbeatWriter
from repro.db.standby import StandbyInstance
from repro.imcs.population import PopulationWorker
from repro.imcs.store import InMemoryColumnStore
from repro.query.executor import QueryWorker
from repro.redo.shipping import LogShipper
from repro.rowstore.undo_retention import UndoRetentionManager
from repro.sim.scheduler import Scheduler
from repro.workload import OLTAPConfig, OLTAPWorkload

from tests.chaos.harness import run_scenario
from tests.chaos.scenarios import get_scenario
from tests.db.conftest import small_config


def _worker_idle(worker: RecoveryWorker, now: float) -> bool:
    if worker.distributor.queues[worker.worker_id]:
        return False
    if worker.flush_helper is None:
        return True
    worklink = worker.flush_helper.__self__.worklink
    return worklink is None or not worklink.nodes


def _coordinator_idle(coordinator: RecoveryCoordinator, now: float) -> bool:
    mergers = (coordinator.merger, *(p.merger for p in coordinator.peers))
    return (
        coordinator._advancing_to is None
        and not any(merger.pending_merged for merger in mergers)
        and now <= coordinator._last_check + coordinator.interval
    )


def _population_idle(worker: PopulationWorker, now: float) -> bool:
    return not worker.engine.backlog and (
        not worker.sweep
        or now <= worker._last_sweep + worker.SWEEP_INTERVAL
    )


#: Per parking actor kind, "it has no input waiting" at ``now``; a timer's
#: input is its due time.
IDLE = {
    LogShipper: lambda a, now: a.shipped_through == len(a._log),
    LogMerger: lambda a, now: a.receiver.pending() == 0,
    RecoveryWorker: _worker_idle,
    PopulationWorker: _population_idle,
    QueryWorker: lambda a, now: not a.pool.queue_depth,
    RecoveryCoordinator: _coordinator_idle,
    HeartbeatWriter: lambda a, now: now <= a._last_write + a.interval,
    UndoRetentionManager: lambda a, now: now <= a._last_sweep + a.interval,
}


class CheckingScheduler(Scheduler):
    """Checks every parked actor after every dispatch; counts the parked
    actors it checked per kind, so a run that parked nothing shows."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checked: Counter = Counter()

    def _dispatch_one(self) -> None:
        super()._dispatch_one()
        for actor in self.actors:
            if actor.parked_on is not self:
                continue
            kind = type(actor)
            idle = IDLE.get(kind)
            assert idle is not None, f"{actor!r} parks but is not checked"
            assert idle(actor, self.now), f"{actor!r} parked with input at {self.now}"
            self.checked[kind.__name__] += 1


def checked_run(drive) -> Counter:
    """Run ``drive`` with every ``Deployment.build`` on a checking
    scheduler and every population step under the quiesce check; returns
    the parked actors checked, per kind, and the ``registered units``."""
    built = []
    registered = []

    def make(*args, **kwargs):
        built.append(CheckingScheduler(*args, **kwargs))
        return built[-1]

    def register_unit(
        store, imcu, original=InMemoryColumnStore.register_unit
    ):
        registered.append(imcu)
        return original(store, imcu)

    def step(worker, sched, original=PopulationWorker.step):
        registered.clear()
        cost = original(worker, sched)
        instance = worker.engine.snapshot_capture.__self__
        if isinstance(instance, StandbyInstance):
            published = instance.query_scn.value
            for imcu in registered:
                assert imcu.snapshot_scn == published, (
                    f"{worker!r} registered a unit at {imcu.snapshot_scn}, "
                    f"its instance published {published}"
                )
                assert published >= instance.population_floor
                sched.checked["registered units"] += 1
        return cost

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.db.deployment.Scheduler", make)
        patch.setattr(InMemoryColumnStore, "register_unit", register_unit)
        patch.setattr(PopulationWorker, "step", step)
        drive()
    (sched,) = built
    return sched.checked


PIPELINE = {
    "LogShipper", "LogMerger", "RecoveryWorker", "PopulationWorker",
    "registered units",
}


def oltap(
    seed: int, n_instances: int = 1, mira: bool = False, mix=None, **apply
):
    """A small OLTAP run with updates, inserts and standby scans, on one
    standby or on a member scaled out to ``n_instances``; ``mix``
    overrides ``OLTAPConfig`` fields and ``apply`` ``ApplyConfig`` ones."""

    def drive():
        config = small_config()
        config.seed = seed
        config.imcs.population_workers = 2
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

    return drive


@pytest.mark.parametrize("seed", [7, 31])
@pytest.mark.parametrize("n_workers", [1, 4])  # 1: the unsplit queue
def test_single_standby_oltap(seed, n_workers):
    checked = checked_run(oltap(seed, n_workers=n_workers))
    assert PIPELINE <= set(checked)


def test_workers_help_drain_a_long_worklink():
    """One-statement transactions at 2 000 ops/s checked every 50 ms, and
    a coordinator that drains one node per step: the worklink outlives the
    step that chopped it, so the parked workers must be woken to it."""
    checked = checked_run(oltap(
        5,
        mix={
            "target_ops_per_sec": 2000.0, "duration": 0.5, "pct_update": 0.7,
            "pct_insert": 0.0, "pct_scan": 0.0, "txn_statements": (1, 1),
        },
        coordinator_flush_batch=1,
        cooperative_flush_batch=1,
        coordinator_interval=0.05,
    ))
    assert PIPELINE <= set(checked)


@pytest.mark.parametrize("mira", [False, True], ids=["sira", "mira"])
def test_rac_member(mira):
    checked = checked_run(oltap(11, n_instances=2, mira=mira))
    assert PIPELINE <= set(checked)


@pytest.mark.parametrize(
    "scenario",
    [
        "fal_gap_storm",  # shipments dropped and FAL-healed
        "checkpoint_crash",  # a standby bounced, restarted from checkpoints
        "standby_loss_mid_wave",  # a reader wave's scans on query workers
    ],
)
def test_chaos_scenario(scenario):
    checked = checked_run(
        lambda: run_scenario(get_scenario(scenario), seed=7)
    )
    assert PIPELINE <= set(checked)
    if scenario == "standby_loss_mid_wave":
        assert checked["QueryWorker"] > 0
