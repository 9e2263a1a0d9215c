"""Chaos regression for the journal-latch livelock.

A recovery worker crashing while it holds an IM-ADG Journal bucket latch
(CrashActor mid-mine) used to livelock the `InvalidationFlushComponent`
drain -- and with it QuerySCN advancement -- forever.  The flush
now spins a bounded number of times and then breaks the dead holder's
latch (PMON-style latch recovery), so advancement completes.
"""

from __future__ import annotations

from repro.chaos.sites import PROCEED, Action, Decision, SiteRegistry, recording
from repro.db import Deployment, InMemoryService
from repro.imcs import Predicate

from tests.chaos import faults as F
from tests.chaos.harness import ChaosContext, FaultPlan
from tests.chaos.invariants import standard_invariants
from tests.db.conftest import load, simple_table_def, small_config


class BlockFlush:
    """Togglable injector: stalls all worklink draining while ``blocked``.

    Unlike removing the coordinator from the scheduler, this leaves redo
    distribution and apply running -- only the flush (QuerySCN
    advancement) is held back, which is the livelock staging window."""

    def __init__(self):
        self.blocked = True

    def decide(self, site, event, context):
        return Decision(Action.STALL) if self.blocked else PROCEED


def build_quiet_ctx(n=60):
    """A loaded deployment with heartbeats off, so a crashed worker's
    queue does not keep accumulating redo and stall apply progress."""
    registry = SiteRegistry()
    with recording(registry):
        deployment = Deployment.build(
            config=small_config(), heartbeats=False
        )
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment, n=n)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()
    ctx = ChaosContext(
        deployment=deployment, registry=registry, sched=deployment.sched
    )
    return ctx, rowids


def test_advancement_completes_after_worker_crash_holding_latch():
    ctx, rowids = build_quiet_ctx()
    deployment = ctx.deployment
    standby = deployment.standby
    sched = deployment.sched

    # hold QuerySCN advancement still while we stage the crash window:
    # stall the worklink (both coordinator and cooperative worker flushes
    # route through it), so the mined commit stays unflushed while redo
    # apply proceeds normally
    blocker = BlockFlush()
    ctx.registry.install("flush.worklink", blocker)

    txn = deployment.primary.begin()
    for rowid in rowids[:20]:
        deployment.primary.update(txn, "T", rowid, {"n1": -5.0})
    commit_scn = deployment.primary.commit(txn)

    ok = sched.run_until_condition(
        lambda: all(
            w.applied_through() >= commit_scn for w in standby.workers
        )
        and standby.journal.anchor_count >= 1,
        max_time=60.0,
    )
    assert ok, "workers never applied/mined the committed transaction"
    assert standby.query_scn.value < commit_scn  # mined, not yet flushed

    # the crash window: worker 0 dies holding the bucket latch of the
    # transaction it was mining
    victim = standby.workers[0]
    xid = next(
        xid for bucket in standby.journal._buckets for xid in bucket
    )
    bucket = standby.journal._bucket_index(xid)
    assert standby.journal.latches.latch_for(bucket).try_acquire(victim)
    FaultPlan().at(sched.now, F.CrashActor(victim.name)).arm(ctx)
    deployment.run(0.01)  # fire the crash
    assert victim not in sched.actors

    # resume advancement: the flush must break the dead worker's latch
    # instead of spinning on it forever
    blocker.blocked = False
    ok = sched.run_until_condition(
        lambda: standby.query_scn.value >= commit_scn, max_time=60.0
    )
    assert ok, "QuerySCN advancement livelocked on the dead worker's latch"
    assert standby.journal.latch_breaks >= 1
    assert standby.journal.anchor_count == 0
    assert not standby.journal.latches.latch_for(bucket).is_held()

    # the flushed invalidations are visible and consistent
    result = standby.query("T", [Predicate.eq("n1", -5.0)])
    assert len(result.rows) == 20
    results = [inv.check(ctx) for inv in standard_invariants("T")]
    failed = [r.render() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
