"""Tests for Multi-Instance Redo Apply (the paper's named future work): a
RAC standby member whose every instance applies the change vectors it
owns, advanced by the member's one recovery coordinator."""

from repro import obs
from repro.chaos.sites import Action, Decision, PROCEED, SiteRegistry, recording
from repro.common.config import ApplyConfig, IMCSConfig, RACConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs import Predicate


def build_mira(n_instances=2, primary_instances=2, rows_per_block=8):
    config = SystemConfig(
        imcs=IMCSConfig(imcu_target_rows=64, population_workers=1),
        apply=ApplyConfig(n_workers=3),
        rac=RACConfig(primary_instances=primary_instances),
        rowstore=type(SystemConfig().rowstore)(rows_per_block=rows_per_block),
    )
    deployment = Deployment.build(config=config)
    member = deployment.add_standby_cluster(n_instances, mira=True)
    return deployment, member


def create_and_load(deployment, n=200):
    primary = deployment.primary
    table_def = TableDef(
        "T",
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("n1"),
            ColumnDef.varchar("c1"),
        ),
        rows_per_block=8,
        indexes=("id",),
    )
    deployment.create_table(table_def)
    rowids = []
    for base in range(0, n, 50):
        instance_id = 1 + (base // 50) % len(primary.instances)
        txn = primary.begin(instance_id=instance_id)
        for i in range(base, min(base + 50, n)):
            rowids.append(
                primary.insert(txn, "T", (i, i * 1.0, f"v{i % 5}"))
            )
        primary.commit(txn)
    return rowids


def catch_up_apply(deployment, member):
    """Run until the member's QuerySCN covers the primary (no IMCS)."""
    target = deployment.primary.clock.current
    assert deployment.sched.run_until_condition(
        lambda: member.published_scn >= target, max_time=600.0
    ), f"MIRA lagging: {member.published_scn} < {target}"


def expected_rows(primary, snapshot, table_name="T"):
    table = primary.catalog.table(table_name)
    return sorted(
        values for __, values in table.full_scan(snapshot, primary.txn_table)
    )


def cvs_applied(member):
    return {
        instance.instance_id: sum(w.cvs_applied for w in instance.workers)
        for instance in member.instances
    }


class TestMIRAApply:
    def test_per_instance_workers_get_i_labels_in_construction_order(self):
        """Every apply instance numbers its workers from 0, so the second
        instance's worker w re-declares ``adg.worker.cvs_applied{worker=w}``
        and the registry labels it ``i=1``: one series per worker, in the
        order the instances were built."""
        registry = obs.MetricsRegistry()
        with obs.collecting(registry):
            deployment, member = build_mira()
        create_and_load(deployment)
        catch_up_apply(deployment, member)
        snapshot = registry.snapshot()
        for index, instance in enumerate(member.instances):
            labels = {"i": index} if index else {}
            for worker in instance.workers:
                entry = snapshot.get(
                    "adg.worker.cvs_applied",
                    worker=worker.worker_id, **labels,
                )
                assert entry["value"] == worker.cvs_applied
        assert snapshot.total("adg.worker.cvs_applied") == sum(
            cvs_applied(member).values()
        )
        assert len(snapshot.find("adg.worker.cvs_applied")) == 2 * 3

    def test_apply_work_is_distributed(self):
        deployment, member = build_mira()
        create_and_load(deployment)
        catch_up_apply(deployment, member)
        per_instance = cvs_applied(member)
        assert all(count > 10 for count in per_instance.values()), per_instance

    def test_replication_correctness(self):
        deployment, member = build_mira()
        create_and_load(deployment)
        catch_up_apply(deployment, member)
        snapshot = member.published_scn
        standby = member.standby
        table = standby.catalog.table("T")
        standby_rows = sorted(
            values
            for __, values in table.full_scan(snapshot, standby.txn_table)
        )
        assert standby_rows == expected_rows(deployment.primary, snapshot)
        assert len(standby_rows) == 200

    def test_no_cv_applied_twice(self):
        """Ownership partitions the CV stream: the cluster-wide applied
        count equals the CV count in the redo stream."""
        deployment, member = build_mira()
        create_and_load(deployment, n=100)
        catch_up_apply(deployment, member)
        total_cvs = sum(
            log.batch(0, len(log)).n_cvs
            for log in deployment.primary.redo_logs
        )
        applied = sum(cvs_applied(member).values())
        # ownership partitions the stream: cluster-wide, each CV is applied
        # at most once (heartbeats keep flowing, so <=, not ==)
        assert applied <= total_cvs
        # and every instance really did see + skip the unowned majority
        assert all(
            instance.distributor.cvs_skipped > 0
            for instance in member.instances
        )


class TestMIRADbim:
    def setup_populated(self, n=200):
        deployment, member = build_mira()
        rowids = create_and_load(deployment, n=n)
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.catch_up()
        return deployment, member, rowids

    def test_imcus_distributed_by_ownership(self):
        deployment, member, __ = self.setup_populated()
        per_instance = member.populated_rows()
        assert sum(per_instance.values()) == 200
        assert all(rows > 0 for rows in per_instance.values()), per_instance

    def test_scan_through_merged_imcs(self):
        deployment, member, __ = self.setup_populated()
        result = member.query("T", [Predicate.eq("c1", "v3")])
        assert len(result.rows) == 40
        assert result.stats.imcus_used >= 2
        assert result.stats.fallback_rows == 0

    def test_cross_instance_invalidation_gather(self):
        """A transaction driven on primary instance 1 touches blocks owned
        by both apply instances: its records are mined into both journals
        and the flush must gather them all."""
        deployment, member, rowids = self.setup_populated()
        mined = [i.miner.data_records_mined for i in member.instances]
        primary = deployment.primary
        txn = primary.begin()
        for rowid in rowids[::4]:
            primary.update(txn, "T", rowid, {"n1": -8.0})
        primary.commit(txn)
        deployment.catch_up()
        assert all(
            instance.miner.data_records_mined > before
            for instance, before in zip(member.instances, mined)
        )
        result = member.query("T", [Predicate.eq("n1", -8.0)])
        assert len(result.rows) == 50
        # old values gone
        stale = member.query("T", [Predicate.eq("n1", 0.0)])
        assert all(row[0] != 0 for row in stale.rows)

    def test_full_consistency_after_mixed_dml(self):
        deployment, member, rowids = self.setup_populated()
        primary = deployment.primary
        txn = primary.begin(instance_id=1)
        for rowid in rowids[:30:3]:
            primary.update(txn, "T", rowid, {"c1": "upd"})
        primary.commit(txn)
        txn = primary.begin(instance_id=2)
        for rowid in rowids[1:20:5]:
            primary.delete(txn, "T", rowid)
        primary.commit(txn)
        # a rollback sprinkles UNDO CVs across instances
        txn = primary.begin()
        primary.update(txn, "T", rowids[40], {"c1": "ghost"})
        primary.insert(txn, "T", (9999, 1.0, "ghost"))
        primary.rollback(txn)
        deployment.catch_up()
        snapshot = member.published_scn
        got = sorted(member.query("T").rows)
        assert got == expected_rows(primary, snapshot)
        assert not any(row[2] == "ghost" for row in got)

    def test_aborted_transactions_garbage_collected(self):
        deployment, member, rowids = self.setup_populated()
        primary = deployment.primary
        for i in range(5):
            txn = primary.begin()
            primary.update(txn, "T", rowids[i], {"n1": -1.0})
            primary.rollback(txn)
        deployment.catch_up()
        # run a little longer so a post-abort advancement performs GC
        txn = primary.begin()
        primary.update(txn, "T", rowids[50], {"n1": -2.0})
        primary.commit(txn)
        deployment.catch_up()
        flush = member.standby.flush

        def anchors():
            return sum(journal.anchor_count for journal in flush.journals)

        assert deployment.sched.run_until_condition(
            lambda: not flush.aborted and anchors() == 0,
            max_time=60.0,
        )

    def test_ddl_drop_column_across_mira(self):
        deployment, member, __ = self.setup_populated()
        deployment.primary.drop_column("T", "n1")
        deployment.catch_up()
        assert member.standby.catalog.table("T").schema.is_dropped("n1")
        result = member.query("T")
        assert len(result.rows) == 200
        assert all(len(row) == 2 for row in result.rows)

    def test_queryscn_monotone_and_consistent_per_instance(self):
        deployment, member, __ = self.setup_populated()
        for instance in member.instances:
            history = [scn for __, scn in instance.query_scn.history]
            assert history == sorted(history)
        # a peer publishes exactly what the master published, once the
        # publication reaches it
        published = {scn for __, scn in member.standby.query_scn.history}
        for peer in member.peers:
            assert {scn for __, scn in peer.query_scn.history} <= published


class _BlockFlush:
    """Stalls worklink draining while ``blocked`` (chaos injector)."""

    def __init__(self):
        self.blocked = True

    def decide(self, site, event, context):
        return Decision(Action.STALL) if self.blocked else PROCEED


class TestMIRAAdvancement:
    """One advancement protocol: the member's RecoveryCoordinator and
    flush component, with cooperative flush and chaos sites, advance a
    MIRA member as they do a single instance."""

    def test_workers_flush_cooperatively(self):
        deployment, member, rowids = TestMIRADbim().setup_populated()
        primary = deployment.primary
        for rowid in rowids:
            txn = primary.begin()
            primary.update(txn, "T", rowid, {"n1": -6.0})
            primary.commit(txn)
        deployment.catch_up()
        flush = member.standby.flush
        assert flush.nodes_flushed_by_workers > 0
        assert all(
            worker.flush_helper == flush.worker_flush
            for instance in member.instances
            for worker in instance.workers
        )
        assert len(member.query("T", [Predicate.eq("n1", -6.0)]).rows) == 200

    def test_worklink_stall_holds_back_publication(self):
        registry = SiteRegistry()
        with recording(registry):
            deployment, member = build_mira()
            rowids = create_and_load(deployment)
            deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
            deployment.catch_up()
        standby = member.standby
        blocker = _BlockFlush()
        registry.install("flush.worklink", blocker)
        primary = deployment.primary
        txn = primary.begin()
        for rowid in rowids[::4]:
            primary.update(txn, "T", rowid, {"n1": -7.0})
        commit_scn = primary.commit(txn)
        deployment.run(1.0)
        assert member.applied_through_scn >= commit_scn
        assert standby.flush.chaos_stalls > 0
        assert standby.query_scn.value < commit_scn
        assert not member.query("T", [Predicate.eq("n1", -7.0)]).rows
        blocker.blocked = False
        deployment.catch_up()
        assert standby.coordinator.advancements > 0
        assert len(member.query("T", [Predicate.eq("n1", -7.0)]).rows) == 50


def test_a_named_member_scales_out_and_leaves_with_every_destination():
    """Any member scales out; its apply instances join the deployment's
    shippers, and losing the member stops shipping to all of them."""
    deployment = Deployment.build(
        config=SystemConfig(apply=ApplyConfig(n_workers=2)), n_standbys=2
    )
    member = deployment.add_standby_cluster(2, member="standby-2", mira=True)
    assert member is deployment.member("standby-2")
    assert not deployment.member("standby-1").peers
    for shipper in deployment.shippers:
        assert list(shipper._receivers) == [
            "standby-1", "standby-2", "standby-2.2",
        ]
    create_and_load(deployment, n=100)
    deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
    deployment.catch_up()
    assert all(cvs_applied(member).values())
    assert sorted(member.query("T").rows) == expected_rows(
        deployment.primary, member.published_scn
    )
    deployment.lose_standby("standby-2")
    for shipper in deployment.shippers:
        assert list(shipper._receivers) == ["standby-1"]
