"""Tests for Multi-Instance Redo Apply (the paper's named future work)."""

import pytest

from repro.common.config import ApplyConfig, IMCSConfig, RACConfig, SystemConfig
from repro.db import ColumnDef, PrimaryDatabase, TableDef
from repro.imcs import Predicate
from repro.rac.mira import MIRAStandbyCluster
from repro.sim import Scheduler


def build_mira(n_instances=2, primary_instances=2, rows_per_block=8):
    config = SystemConfig(
        imcs=IMCSConfig(imcu_target_rows=64, population_workers=1),
        apply=ApplyConfig(n_workers=3),
        rac=RACConfig(primary_instances=primary_instances),
        rowstore=type(SystemConfig().rowstore)(rows_per_block=rows_per_block),
    )
    sched = Scheduler(seed=config.seed, jitter=0.05)
    primary = PrimaryDatabase(config)
    primary.attach_actors(sched)
    cluster = MIRAStandbyCluster(primary, sched, n_instances=n_instances,
                                 config=config)
    return primary, cluster, sched


def create_and_load(primary, cluster, sched, n=200):
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
    primary.create_table(table_def)
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


def catch_up(primary, cluster, sched, require_population=True,
             timeout=600.0):
    target = primary.clock.current

    def done():
        if cluster.query_scn.value < target:
            return False
        if require_population and not cluster.fully_populated():
            return False
        return True

    assert sched.run_until_condition(done, max_time=timeout), (
        f"MIRA lagging: {cluster.query_scn.value} < {target}"
    )


def expected_rows(primary, snapshot, table_name="T"):
    table = primary.catalog.table(table_name)
    return sorted(
        values for __, values in table.full_scan(snapshot, primary.txn_table)
    )


class TestMIRAApply:
    def test_apply_work_is_distributed(self):
        primary, cluster, sched = build_mira()
        create_and_load(primary, cluster, sched)
        catch_up(primary, cluster, sched, require_population=False)
        per_instance = cluster.cvs_applied_per_instance()
        assert all(count > 10 for count in per_instance.values()), per_instance

    def test_replication_correctness(self):
        primary, cluster, sched = build_mira()
        create_and_load(primary, cluster, sched)
        catch_up(primary, cluster, sched, require_population=False)
        snapshot = cluster.query_scn.value
        table = cluster.catalog.table("T")
        standby_rows = sorted(
            values
            for __, values in table.full_scan(snapshot, cluster.txn_table)
        )
        assert standby_rows == expected_rows(primary, snapshot)
        assert len(standby_rows) == 200

    def test_no_cv_applied_twice(self):
        """Ownership partitions the CV stream: the cluster-wide applied
        count equals the CV count in the redo stream."""
        primary, cluster, sched = build_mira()
        create_and_load(primary, cluster, sched, n=100)
        catch_up(primary, cluster, sched, require_population=False)
        total_cvs = sum(
            log.batch(0, len(log)).n_cvs for log in primary.redo_logs
        )
        applied = sum(cluster.cvs_applied_per_instance().values())
        skipped = sum(i.distributor.cvs_skipped for i in cluster.instances)
        # ownership partitions the stream: cluster-wide, each CV is applied
        # at most once (heartbeats keep flowing, so <=, not ==)
        assert applied <= total_cvs
        # and every instance really did see + skip the unowned majority
        assert skipped > 0
        assert all(
            instance.distributor.cvs_skipped > 0
            for instance in cluster.instances
        )


class TestMIRADbim:
    def setup_populated(self, n=200):
        primary, cluster, sched = build_mira()
        rowids = create_and_load(primary, cluster, sched, n=n)
        # the create-table marker must apply before enablement
        assert sched.run_until_condition(
            lambda: "T" in cluster.catalog, max_time=60.0
        )
        cluster.enable_inmemory("T")
        primary.note_standby_enablement(
            cluster.catalog.table("T").object_ids
        )
        catch_up(primary, cluster, sched)
        return primary, cluster, sched, rowids

    def test_imcus_distributed_by_ownership(self):
        primary, cluster, sched, __ = self.setup_populated()
        per_instance = cluster.populated_rows()
        assert sum(per_instance.values()) == 200
        assert all(rows > 0 for rows in per_instance.values()), per_instance

    def test_scan_through_merged_imcs(self):
        primary, cluster, sched, __ = self.setup_populated()
        result = cluster.query("T", [Predicate.eq("c1", "v3")])
        assert len(result.rows) == 40
        assert result.stats.imcus_used >= 2
        assert result.stats.fallback_rows == 0

    def test_cross_instance_invalidation_gather(self):
        """A transaction driven on primary instance 1 touches blocks owned
        by both apply instances: its records sit in two journals and the
        coordinator must gather them all."""
        primary, cluster, sched, rowids = self.setup_populated()
        txn = primary.begin()
        for rowid in rowids[::4]:
            primary.update(txn, "T", rowid, {"n1": -8.0})
        primary.commit(txn)
        catch_up(primary, cluster, sched)
        assert cluster.coordinator.cross_instance_gathers >= 1
        result = cluster.query("T", [Predicate.eq("n1", -8.0)])
        assert len(result.rows) == 50
        # old values gone
        stale = cluster.query("T", [Predicate.eq("n1", 0.0)])
        assert all(row[0] != 0 for row in stale.rows)

    def test_full_consistency_after_mixed_dml(self):
        primary, cluster, sched, rowids = self.setup_populated()
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
        catch_up(primary, cluster, sched)
        snapshot = cluster.query_scn.value
        got = sorted(cluster.query("T").rows)
        assert got == expected_rows(primary, snapshot)
        assert not any(row[2] == "ghost" for row in got)

    def test_aborted_transactions_garbage_collected(self):
        primary, cluster, sched, rowids = self.setup_populated()
        for i in range(5):
            txn = primary.begin()
            primary.update(txn, "T", rowids[i], {"n1": -1.0})
            primary.rollback(txn)
        catch_up(primary, cluster, sched)
        # run a little longer so a post-abort advancement performs GC
        txn = primary.begin()
        primary.update(txn, "T", rowids[50], {"n1": -2.0})
        primary.commit(txn)
        catch_up(primary, cluster, sched)
        def anchors():
            return sum(i.journal.anchor_count for i in cluster.instances)

        assert sched.run_until_condition(
            lambda: not cluster.aborted_xids and anchors() == 0,
            max_time=60.0,
        )

    def test_ddl_drop_column_across_mira(self):
        primary, cluster, sched, __ = self.setup_populated()
        primary.drop_column("T", "n1")
        catch_up(primary, cluster, sched)
        assert cluster.catalog.table("T").schema.is_dropped("n1")
        result = cluster.query("T")
        assert len(result.rows) == 200
        assert all(len(row) == 2 for row in result.rows)

    def test_queryscn_monotone_and_consistent_per_instance(self):
        primary, cluster, sched, __ = self.setup_populated()
        history = [scn for __, scn in cluster.query_scn.history]
        assert history == sorted(history)
        for instance in cluster.instances:
            assert instance.query_scn.value == cluster.query_scn.value
