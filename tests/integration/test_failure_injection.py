"""Failure injection through the chaos harness: the standby stays
consistent under adverse timing.

Each test arms a :class:`~tests.chaos.harness.FaultPlan` (or perturbs the
configuration) around a live deployment and then evaluates the chaos
invariant battery -- the golden invariant (standby scan at the published
QuerySCN equals a primary consistent read at the same SCN), QuerySCN
monotonicity, journal drain and gap contiguity -- instead of hand-rolled
asserts.  The canned end-to-end versions of these runs live in
:mod:`tests.chaos.scenarios`; these tests exercise the same machinery
with finer-grained checks in between.
"""

from __future__ import annotations

from repro.chaos.sites import SiteRegistry, recording
from repro.common.config import ApplyConfig, IMCSConfig
from repro.db import Deployment, InMemoryService
from repro.imcs import Predicate
from repro.workload import OLTAPConfig, OLTAPWorkload

from tests.chaos import faults as F
from tests.chaos.harness import ChaosContext, FaultPlan
from tests.chaos.invariants import standard_invariants
from tests.db.conftest import load, simple_table_def, small_config


def build_ctx(config=None, n=100):
    """A loaded deployment recorded into a fresh site registry."""
    registry = SiteRegistry()
    with recording(registry):
        deployment = Deployment.build(config=config or small_config())
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment, n=n)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()
    ctx = ChaosContext(
        deployment=deployment, registry=registry, sched=deployment.sched
    )
    return ctx, rowids


def assert_invariants(ctx, table="T"):
    results = [inv.check(ctx) for inv in standard_invariants(table)]
    failed = [r.render() for r in results if not r.passed]
    assert not failed, "\n".join(failed)


class TestShippingOutage:
    def test_lag_grows_then_recovers(self):
        """Crash redo shipping mid-workload: the QuerySCN stalls (queries
        keep answering consistently at the stale snapshot); the restarted
        shipper catches the standby up with no loss."""
        ctx, rowids = build_ctx()
        deployment = ctx.deployment
        FaultPlan().at(
            ctx.sched.now, F.CrashActor("shipper-t", restart_after=0.5)
        ).arm(ctx)
        deployment.run(0.01)  # fire the crash

        stalled_scn = deployment.standby.query_scn.value
        txn = deployment.primary.begin()
        for rowid in rowids[:30]:
            deployment.primary.update(txn, "T", rowid, {"n1": -7.0})
        deployment.primary.commit(txn)
        deployment.run(0.4)
        # nothing arrived: the standby still answers at the old snapshot
        assert deployment.standby.query_scn.value <= stalled_scn + 1
        stale = deployment.standby.query("T", [Predicate.eq("n1", -7.0)])
        assert stale.rows == []
        assert deployment.redo_lag_scns > 10

        deployment.run(0.2)  # restart fires at +0.5
        deployment.catch_up()
        fresh = deployment.standby.query("T", [Predicate.eq("n1", -7.0)])
        assert len(fresh.rows) == 30
        assert_invariants(ctx)


class TestTransportFaults:
    def test_dropped_shipments_fal_heal(self):
        """Drop batches in transit: the receiver detects the archive gap
        and FAL-fetches it; redo applies exactly once."""
        ctx, rowids = build_ctx()
        deployment = ctx.deployment
        FaultPlan().at(
            ctx.sched.now, F.Drop("redo.ship", count=2)
        ).arm(ctx)
        txn = deployment.primary.begin()
        for rowid in rowids[:20]:
            deployment.primary.update(txn, "T", rowid, {"n1": -6.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        assert deployment.standby.receiver.gaps_resolved >= 1
        result = deployment.standby.query("T", [Predicate.eq("n1", -6.0)])
        assert len(result.rows) == 20
        assert_invariants(ctx)

    def test_duplicated_and_delayed_shipments_apply_once(self):
        ctx, rowids = build_ctx()
        deployment = ctx.deployment
        (
            FaultPlan()
            .at(ctx.sched.now, F.Duplicate("redo.ship", count=3))
            .at(ctx.sched.now + 0.1, F.Delay("redo.ship", by=0.05, count=2))
            .arm(ctx)
        )
        for burst in range(4):
            txn = deployment.primary.begin()
            for rowid in rowids[burst::10]:
                deployment.primary.update(
                    txn, "T", rowid, {"n1": float(-burst)}
                )
            deployment.primary.commit(txn)
            deployment.run(0.08)
        deployment.catch_up()
        assert deployment.standby.receiver.duplicates_discarded >= 1
        assert_invariants(ctx)


class TestWorkerFaults:
    def test_worker_crash_and_stall_preserve_consistency(self):
        ctx, rowids = build_ctx(
            config=small_config(apply=ApplyConfig(n_workers=4))
        )
        deployment = ctx.deployment
        (
            FaultPlan()
            .at(ctx.sched.now, F.Stall("adg.apply_worker", count=20))
            .at(
                ctx.sched.now + 0.05,
                F.CrashActor("standby-1-recovery-worker-1", restart_after=0.3),
            )
            .arm(ctx)
        )
        txn = deployment.primary.begin()
        for rowid in rowids[::3]:
            deployment.primary.update(txn, "T", rowid, {"c1": "skewed"})
        deployment.primary.commit(txn)
        deployment.catch_up(timeout=900.0)
        result = deployment.standby.query("T", [Predicate.eq("c1", "skewed")])
        assert len(result.rows) == 34
        assert_invariants(ctx)

    def test_extreme_speed_skew_preserves_consistency(self):
        ctx, rowids = build_ctx(
            config=small_config(apply=ApplyConfig(n_workers=4))
        )
        deployment = ctx.deployment
        deployment.standby.workers[0].speed = 100.0
        txn = deployment.primary.begin()
        for rowid in rowids[::3]:
            deployment.primary.update(txn, "T", rowid, {"c1": "skewed"})
        deployment.primary.commit(txn)
        deployment.catch_up(timeout=900.0)
        assert_invariants(ctx)


class TestPublishStall:
    def test_stalled_publication_resumes_and_stays_monotonic(self):
        ctx, rowids = build_ctx()
        deployment = ctx.deployment
        FaultPlan().at(
            ctx.sched.now, F.Stall("adg.queryscn_publish", count=10)
        ).arm(ctx)
        txn = deployment.primary.begin()
        for rowid in rowids[:25]:
            deployment.primary.update(txn, "T", rowid, {"n1": -9.0})
        deployment.primary.commit(txn)
        deployment.catch_up(timeout=900.0)
        assert deployment.standby.coordinator.publish_stalls >= 1
        assert_invariants(ctx)


class TestRestartStorm:
    def test_three_restarts_under_continuous_dml(self):
        registry = SiteRegistry()
        with recording(registry):
            deployment = Deployment.build(config=small_config())
        ctx = ChaosContext(
            deployment=deployment, registry=registry, sched=deployment.sched
        )
        config = OLTAPConfig(
            n_rows=400, n_number_columns=5, n_varchar_columns=5,
            target_ops_per_sec=300.0, pct_update=0.5, pct_insert=0.2,
            pct_scan=0.0, duration=0.6,
        )
        workload = OLTAPWorkload(deployment, config)
        workload.setup(service=InMemoryService.STANDBY)
        now = ctx.sched.now
        FaultPlan().at(
            now + 0.5, F.Repeat(lambda: F.RestartStandby(), times=3,
                                interval=0.6)
        ).arm(ctx)
        workload.start()
        deployment.run(2.0)
        workload.stop()
        deployment.catch_up()
        assert deployment.standby.restarts == 3
        assert_invariants(ctx, config.table_name)
        # IMCS recovered and serves scans again
        result = deployment.standby.query(config.table_name)
        assert result.stats.imcus_used >= 1


class TestQuiesceContention:
    def test_population_storm_does_not_block_advancement_forever(self):
        """Aggressive repopulation (threshold ~0) makes population workers
        take the shared quiesce lock constantly; the coordinator must keep
        publishing regardless -- with flush stalls layered on top."""
        ctx, rowids = build_ctx(
            config=small_config(
                imcs=IMCSConfig(
                    imcu_target_rows=16,
                    population_workers=3,
                    repopulate_invalid_fraction=0.001,
                    repopulate_min_interval=0.0,
                )
            )
        )
        deployment = ctx.deployment
        FaultPlan().at(
            ctx.sched.now, F.Stall("flush.worklink", count=5)
        ).arm(ctx)
        advancements_before = deployment.standby.coordinator.advancements
        txn = deployment.primary.begin()
        for rowid in rowids[:50]:
            deployment.primary.update(txn, "T", rowid, {"n1": -2.0})
        deployment.primary.commit(txn)
        deployment.catch_up(timeout=900.0)
        assert deployment.standby.coordinator.advancements > advancements_before
        assert deployment.standby.flush.chaos_stalls >= 1
        assert_invariants(ctx)


class TestLongOpenTransaction:
    def test_old_transaction_commits_after_many_advancements(self):
        """A transaction held open across hundreds of QuerySCN
        advancements must stay buffered in the journal and flush exactly
        once at its commit -- while shipping faults churn underneath."""
        ctx, rowids = build_ctx(n=50)
        deployment = ctx.deployment
        FaultPlan().at(
            ctx.sched.now + 0.2, F.Drop("redo.ship", count=1)
        ).arm(ctx)

        long_txn = deployment.primary.begin()
        deployment.primary.update(long_txn, "T", rowids[0], {"c1": "late"})
        # unrelated churn drives many advancements while long_txn is open
        for i in range(20):
            txn = deployment.primary.begin()
            deployment.primary.update(txn, "T", rowids[10 + i % 30],
                                      {"n1": float(i)})
            deployment.primary.commit(txn)
            deployment.run(0.05)
        assert deployment.standby.journal.anchor_count >= 1  # still buffered
        none_yet = deployment.standby.query("T", [Predicate.eq("c1", "late")])
        assert none_yet.rows == []

        deployment.primary.commit(long_txn)
        deployment.catch_up()
        late = deployment.standby.query("T", [Predicate.eq("c1", "late")])
        assert len(late.rows) == 1
        assert_invariants(ctx)
