"""Integration tests: DDL replication (III-G) and the instance-restart /
coarse-invalidation protocol (III-E)."""

from repro.common.config import JournalConfig
from repro.db import Deployment, InMemoryService
from repro.imcs import Predicate

from tests.db.conftest import load, simple_table_def, small_config


class TestDDL:
    def test_drop_column_replicates_at_advancement(self, loaded_deployment):
        deployment, __ = loaded_deployment
        deployment.primary.drop_column("T", "n1")
        deployment.catch_up()
        standby_schema = deployment.standby.catalog.table("T").schema
        assert standby_schema.is_dropped("n1")
        # scans still work and no longer include the column
        result = deployment.standby.query("T")
        assert len(result.rows) == 100
        assert all(len(row) == 2 for row in result.rows)

    def test_drop_column_repopulates_imcus(self, loaded_deployment):
        deployment, __ = loaded_deployment
        deployment.primary.drop_column("T", "n1")
        deployment.catch_up()
        # repopulated units must not carry the dropped column
        oid = deployment.standby.catalog.table("T").object_ids[0]
        units = deployment.standby.imcs.segment(oid).live_units()
        assert units, "IMCUs should repopulate after the DDL drop"
        assert all("n1" not in smu.imcu.column_names for smu in units)
        result = deployment.standby.query("T", [Predicate.eq("c1", "v3")])
        assert result.stats.imcus_used >= 1

    def test_truncate_replicates(self, loaded_deployment):
        deployment, __ = loaded_deployment
        deployment.primary.truncate_table("T")
        deployment.catch_up()
        assert deployment.standby.query("T").rows == []
        assert deployment.primary.query("T").rows == []

    def test_insert_after_truncate(self, loaded_deployment):
        deployment, __ = loaded_deployment
        deployment.primary.truncate_table("T")
        load(deployment, n=7, start=5000)
        deployment.catch_up()
        rows = deployment.standby.query("T").rows
        assert sorted(r[0] for r in rows) == list(range(5000, 5007))

    def test_truncate_racing_unshipped_dml_cannot_resurrect_rows(self):
        """Parallel apply orders CVs per *block*, not per object: a
        TRUNCATE (reserved DBA) in the same shipment as the rows it wipes
        can reach a different worker and apply first, after which the
        late data CVs would resurrect wiped rows at post-truncate
        snapshots.  The segment's recorded truncate SCN must make the
        two orders commute."""
        from repro.common.config import ApplyConfig

        # 3 workers routes the reserved truncate DBA away from the
        # inserts' blocks, so the wipe applies before the rows
        deployment = Deployment.build(
            config=small_config(apply=ApplyConfig(n_workers=3))
        )
        deployment.create_table(simple_table_def())
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        txn = deployment.primary.begin()
        for i in range(3):
            deployment.primary.insert(txn, "T", (i, 0.0, "v0"))
        deployment.primary.commit(txn)
        # truncate before any of it ships: inserts + wipe travel together
        deployment.primary.truncate_table("T")
        deployment.catch_up()
        assert deployment.standby.query("T").rows == []
        snap = deployment.standby.query_scn.value
        table = deployment.primary.catalog.table("T")
        assert list(table.full_scan(snap, deployment.primary.txn_table)) == []

    def test_truncate_leaves_no_journal_anchor(self, loaded_deployment):
        """The TRUNCATE block-wipe CV carries the system xid, which never
        commits -- journaling it would leave an anchor that pins the
        journal floor (and the instant-restart replay floor) forever."""
        deployment, rowids = loaded_deployment
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": -1.0})
        deployment.primary.commit(txn)
        deployment.primary.truncate_table("T")
        load(deployment, n=7, start=5000)
        deployment.catch_up()
        journal = deployment.standby.journal
        assert journal.anchor_count == 0
        assert journal.record_count == 0

    def test_drop_table_replicates(self, loaded_deployment):
        deployment, __ = loaded_deployment
        deployment.primary.drop_table("T")
        deployment.run(1.0)
        assert "T" not in deployment.standby.catalog

    def test_create_table_while_standby_live(self, deployment):
        deployment.create_table(simple_table_def())
        load(deployment, n=10)
        deployment.catch_up()
        # second table created after the standby is already applying
        deployment.create_table(simple_table_def(name="U"))
        txn = deployment.primary.begin()
        for i in range(5):
            deployment.primary.insert(txn, "U", (i, 1.0 * i, "u"))
        deployment.primary.commit(txn)
        deployment.catch_up()
        assert len(deployment.standby.query("U").rows) == 5


class TestRestartProtocol:
    def run_partial_txn(self, deployment, rowids):
        """Start a transaction, apply its DML on the standby, return it
        *uncommitted*."""
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": -1.0})
        deployment.run(0.5)  # DML redo ships and applies
        return txn

    def test_restart_then_commit_triggers_coarse_invalidation(
        self, loaded_deployment
    ):
        deployment, rowids = loaded_deployment
        txn = self.run_partial_txn(deployment, rowids)
        deployment.standby.restart()  # journal lost with txn half-mined
        deployment.run(0.2)
        # population rebuilds IMCUs at a pre-commit QuerySCN
        deployment.catch_up()
        deployment.primary.commit(txn)
        deployment.run(1.0)
        assert deployment.standby.miner.coarse_nodes_created >= 1
        assert deployment.standby.imcs.coarse_invalidations >= 1
        # correctness holds: the update is visible (via fallback or repop)
        deployment.catch_up()
        result = deployment.standby.query("T", [Predicate.eq("n1", -1.0)])
        assert len(result.rows) == 1

    def test_flag_false_avoids_coarse_invalidation(self, deployment):
        """A cross-restart transaction that never touched an IMCS-enabled
        object must NOT trigger coarse invalidation -- the benefit of
        specialized redo generation (paper, III-E)."""
        deployment.create_table(simple_table_def())
        deployment.create_table(simple_table_def(name="PLAIN"))
        load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()

        txn = deployment.primary.begin()
        deployment.primary.insert(txn, "PLAIN", (1, 1.0, "x"))
        deployment.run(0.5)
        deployment.standby.restart()
        deployment.run(0.2)
        deployment.catch_up()
        deployment.primary.commit(txn)
        deployment.run(1.0)
        assert deployment.standby.miner.coarse_nodes_created == 0
        assert deployment.standby.imcs.coarse_invalidations == 0

    def test_pessimistic_mode_coarse_invalidates_everything(self):
        """Without specialized redo generation every cross-restart commit
        must be assumed dangerous."""
        config = small_config(
            journal=JournalConfig(specialized_commit_redo=False)
        )
        deployment = Deployment.build(config=config)
        deployment.create_table(simple_table_def())
        deployment.create_table(simple_table_def(name="PLAIN"))
        rowids, __ = load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()

        txn = deployment.primary.begin()
        deployment.primary.insert(txn, "PLAIN", (1, 1.0, "x"))  # not in IMCS!
        deployment.run(0.5)
        deployment.standby.restart()
        deployment.run(0.2)
        deployment.catch_up()
        deployment.primary.commit(txn)
        deployment.run(1.0)
        # pessimism: coarse invalidation fires even for the PLAIN-only txn
        assert deployment.standby.miner.coarse_nodes_created >= 1

    def test_restart_loses_imcus_and_repopulates(self, loaded_deployment):
        deployment, __ = loaded_deployment
        assert deployment.standby.imcs.populated_rows == 100
        deployment.standby.restart()
        assert deployment.standby.imcs.populated_rows == 0
        deployment.catch_up()
        assert deployment.standby.imcs.populated_rows == 100
        result = deployment.standby.query("T", [Predicate.eq("c1", "v3")])
        assert len(result.rows) == 20
        assert result.stats.imcus_used >= 1

    def test_queries_correct_across_restart_window(self, loaded_deployment):
        deployment, rowids = loaded_deployment
        deployment.standby.restart()
        # even before repopulation, queries fall back to the row store
        result = deployment.standby.query("T", [Predicate.eq("c1", "v3")])
        assert len(result.rows) == 20
        assert result.stats.imcs_rows == 0
