"""End-to-end tests of the primary/standby deployment."""

import pytest

from repro.common.config import ApplyConfig, RACConfig
from repro.db import Deployment, InMemoryService, Service, ServiceRegistry
from repro.imcs import Predicate

from tests.db.conftest import load, simple_table_def, small_config


def rowstore_rows(database, table_name, snapshot):
    table = database.catalog.table(table_name)
    return sorted(v for __, v in table.full_scan(snapshot, database.txn_table))


class TestReplication:
    def test_standby_materialises_table_from_marker(self, deployment):
        deployment.create_table(simple_table_def())
        deployment.run_until_standby_has("T")
        standby_table = deployment.standby.catalog.table("T")
        primary_table = deployment.primary.catalog.table("T")
        assert standby_table.object_ids == primary_table.object_ids

    def test_committed_rows_replicate(self, deployment):
        deployment.create_table(simple_table_def())
        load(deployment, n=50)
        deployment.catch_up()
        snapshot = deployment.standby.query_scn.value
        rows_s = rowstore_rows(deployment.standby, "T", snapshot)
        rows_p = rowstore_rows(deployment.primary, "T", snapshot)
        assert rows_s == rows_p
        assert len(rows_s) == 50

    def test_uncommitted_rows_invisible_on_standby(self, deployment):
        deployment.create_table(simple_table_def())
        load(deployment, n=10)
        txn = deployment.primary.begin()
        deployment.primary.insert(txn, "T", (999, 9.0, "pending"))
        deployment.catch_up()
        result = deployment.standby.query("T")
        assert len(result.rows) == 10
        assert all(row[0] != 999 for row in result.rows)
        # commit and catch up: now visible
        deployment.primary.commit(txn)
        deployment.catch_up()
        assert len(deployment.standby.query("T").rows) == 11

    def test_rolled_back_transaction_never_visible(self, deployment):
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment, n=10)
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"c1": "ghost"})
        deployment.primary.insert(txn, "T", (777, 7.0, "ghost"))
        deployment.primary.rollback(txn)
        deployment.catch_up()
        result = deployment.standby.query("T", [Predicate.eq("c1", "ghost")])
        assert result.rows == []
        assert len(deployment.standby.query("T").rows) == 10

    def test_standby_index_maintained(self, deployment):
        deployment.create_table(simple_table_def())
        load(deployment, n=20)
        deployment.catch_up()
        row = deployment.standby.index_fetch("T", "id", 7)
        assert row == (7, 7.0, "v2")
        assert deployment.standby.index_fetch("T", "id", 999) is None


class TestDBIMOnADG:
    def test_standby_scans_from_imcs(self, loaded_deployment):
        deployment, __ = loaded_deployment
        result = deployment.standby.query("T", [Predicate.eq("c1", "v3")])
        assert len(result.rows) == 20
        assert result.stats.imcus_used >= 1
        assert result.stats.fallback_rows == 0

    def test_update_invalidates_and_reconciles(self, loaded_deployment):
        deployment, rowids = loaded_deployment
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": -42.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        result = deployment.standby.query("T", [Predicate.eq("n1", -42.0)])
        assert len(result.rows) == 1
        assert result.rows[0][0] == 0
        # old value must be gone
        old = deployment.standby.query("T", [Predicate.eq("n1", 0.0)])
        assert all(row[0] != 0 for row in old.rows)

    def test_delete_propagates(self, loaded_deployment):
        deployment, rowids = loaded_deployment
        txn = deployment.primary.begin()
        deployment.primary.delete(txn, "T", rowids[5])
        deployment.primary.commit(txn)
        deployment.catch_up()
        result = deployment.standby.query("T")
        assert len(result.rows) == 99
        assert all(row[0] != 5 for row in result.rows)

    def test_inserts_visible_via_edge_reconcile(self, loaded_deployment):
        deployment, __ = loaded_deployment
        load(deployment, n=10, start=1000)
        deployment.catch_up()
        result = deployment.standby.query("T")
        assert len(result.rows) == 110

    def test_standby_equals_primary_under_mixed_dml(self, loaded_deployment):
        deployment, rowids = loaded_deployment
        primary = deployment.primary
        txn = primary.begin()
        for i in range(0, 40, 4):
            primary.update(txn, "T", rowids[i], {"c1": "upd"})
        primary.commit(txn)
        txn = primary.begin()
        for i in range(1, 20, 4):
            primary.delete(txn, "T", rowids[i])
        primary.commit(txn)
        load(deployment, n=7, start=2000)
        deployment.catch_up()
        rows_s = sorted(deployment.standby.query("T").rows)
        snapshot = deployment.standby.query_scn.value
        expected = rowstore_rows(deployment.primary, "T", snapshot)
        assert rows_s == expected

    def test_plain_adg_without_dbim_still_consistent(self, deployment):
        """The paper's "without DBIM-on-ADG" arm is a standby with nothing
        enabled in memory: it runs the same apply pipeline, and answers
        from the row store."""
        deployment.create_table(simple_table_def())
        load(deployment, n=30)
        deployment.catch_up()
        result = deployment.standby.query("T", [Predicate.eq("c1", "v1")])
        assert len(result.rows) == 6
        assert result.stats.imcs_rows == 0  # nothing is enabled in memory

    def test_primary_only_service_leaves_standby_rowstore(self, deployment):
        deployment.create_table(simple_table_def())
        load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.PRIMARY)
        deployment.catch_up()
        c1_v1 = [Predicate.eq("c1", "v1")]
        for predicates, n_rows in (([], 100), (c1_v1, 20)):
            result_p = deployment.primary.query("T", predicates)
            result_s = deployment.standby.query("T", predicates)
            assert result_p.stats.imcus_used >= 1
            assert result_s.stats.imcus_used == 0
            assert result_s.stats.imcs_rows == 0
            assert sorted(result_p.rows) == sorted(result_s.rows)
            assert len(result_s.rows) == n_rows

    def test_primary_imcs_sees_a_commit_on_its_second_thread(self):
        """The primary invalidates its own IMCS from the redo of the
        thread the transaction ran on, not from instance 1's log."""
        deployment = Deployment.build(
            config=small_config(rac=RACConfig(primary_instances=2))
        )
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.PRIMARY)
        deployment.catch_up()
        primary = deployment.primary
        txn = primary.begin(instance_id=2)
        for rowid in rowids[:5]:
            primary.update(txn, "T", rowid, {"n1": 50.5})
        primary.commit(txn)
        assert txn.xid.instance == 2
        fresh = primary.query("T", [Predicate.eq("n1", 50.5)])
        assert fresh.stats.imcus_used >= 1
        assert sorted(row[0] for row in fresh.rows) == [0, 1, 2, 3, 4]
        assert primary.query("T", [Predicate.eq("n1", 2.0)]).rows == []

    @pytest.mark.parametrize("cooperative", [False, True])
    def test_cooperative_flush_is_decided_by_the_standby(self, cooperative):
        """``ApplyConfig.cooperative_flush`` is the one ablation switch:
        off, no worker holds a flush helper and the coordinator drains
        every worklink alone; on, workers flush nodes under load.  Either
        way the QuerySCN reaches the primary's SCN."""
        config = small_config(apply=ApplyConfig(
            n_workers=4,
            cooperative_flush=cooperative,
            coordinator_flush_batch=2,
            coordinator_interval=0.05,
        ))
        deployment = Deployment.build(config=config)
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.catch_up()
        primary = deployment.primary
        for rowid in rowids[::2]:  # one commit, one worklink node, each
            txn = primary.begin()
            primary.update(txn, "T", rowid, {"n1": -1.0})
            primary.commit(txn)
        target = primary.clock.current
        deployment.catch_up()
        standby = deployment.standby
        assert standby.query_scn.value >= target
        has_helper = [w.flush_helper is not None for w in standby.workers]
        assert has_helper == [cooperative] * 4
        if cooperative:
            assert standby.flush.nodes_flushed_by_workers > 0
        else:
            assert standby.flush.nodes_flushed_by_workers == 0
        assert standby.flush.nodes_flushed >= 50

    def test_commit_flag_reflects_standby_enablement(self, deployment):
        """Even with nothing in-memory on the primary, commits must carry
        the flag for standby-populated objects (paper, III-E)."""
        deployment.create_table(simple_table_def())
        load(deployment, n=5)
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        object_ids = set(deployment.primary.catalog.table("T").object_ids)
        assert object_ids <= deployment.primary.imcs_enabled_objects


class TestServices:
    def test_registry_routing(self):
        from repro.common import InvalidStateError

        mounted = [True]
        registry = ServiceRegistry(lambda: mounted[0])
        registry.create("oltp", Service.PRIMARY_ONLY)
        registry.create("reports", Service.STANDBY_ONLY)
        registry.create("mixed", Service.PRIMARY_AND_STANDBY)
        assert not registry.route("oltp").is_standby
        assert registry.route("reports").is_standby
        assert registry.route("mixed").is_standby
        # the probe reports every standby gone: mixed fails over, a
        # standby-only route is refused, primary-only is unaffected
        mounted[0] = False
        assert not registry.route("mixed").is_standby
        with pytest.raises(InvalidStateError):
            registry.route("reports")
        assert not registry.route("oltp").is_standby

    def test_route_targets_are_typed(self):
        from repro.db import Role, RouteTarget

        registry = ServiceRegistry(lambda: True)
        registry.create("reports", Service.STANDBY_ONLY)
        registry.create("oltp", Service.PRIMARY_ONLY)
        target = registry.route("reports")
        assert target == RouteTarget(Role.STANDBY)
        # the registry names no member; the router narrows it
        assert target.member is None
        assert target.describe() == "standby"
        assert registry.route("oltp") == RouteTarget(Role.PRIMARY)
        assert RouteTarget(Role.STANDBY, "standby-2").describe() == (
            "standby:standby-2"
        )

    def test_duplicate_service_rejected(self):
        from repro.common import InvalidStateError

        registry = ServiceRegistry(lambda: True)
        registry.create("s", Service.PRIMARY_ONLY)
        with pytest.raises(InvalidStateError):
            registry.create("s", Service.STANDBY_ONLY)


class TestQuerySCNBehaviour:
    def test_standby_query_waits_for_flush(self, loaded_deployment):
        """A query run before the invalidation flush sees the *old*
        consistent state, never a torn one."""
        deployment, rowids = loaded_deployment
        before = len(deployment.standby.query(
            "T", [Predicate.eq("c1", "v0")]).rows)
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"c1": "v0x"})
        deployment.primary.commit(txn)
        # no catch_up: the standby hasn't advanced yet
        mid = deployment.standby.query("T", [Predicate.eq("c1", "v0")])
        assert len(mid.rows) in (before, before - 1)
        deployment.catch_up()
        after = deployment.standby.query("T", [Predicate.eq("c1", "v0")])
        assert len(after.rows) == before - 1

    def test_queryscn_history_is_monotone(self, loaded_deployment):
        deployment, __ = loaded_deployment
        history = [scn for __, scn in deployment.standby.query_scn.history]
        assert history == sorted(history)
        assert len(history) >= 1
