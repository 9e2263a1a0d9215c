"""Integration tests: failover to the standby with IMCS carry-over."""

import pytest

from repro.db import Deployment, InMemoryService
from repro.db.failover import failover, terminal_recovery
from repro.imcs import AggregateSpec, Expression, Predicate
from repro.imcs.population import PopulationWorker
from repro.redo.shipping import LogShipper
from repro.txn.table import TxnState

from tests.db.conftest import load, simple_table_def, small_config
from tests.helpers import txn_state
from tests.property.test_index_matches_heap import assert_indexes_match_heap


@pytest.fixture
def ready():
    deployment = Deployment.build(config=small_config())
    deployment.create_table(simple_table_def())
    rowids, __ = load(deployment)
    deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
    deployment.catch_up()
    return deployment, rowids


def kill_primary(deployment):
    """Simulate primary death: its actors (and the shippers) stop."""
    deployment.lose_primary()


class TestTerminalRecovery:
    def test_drains_in_flight_redo(self, ready):
        deployment, rowids = ready
        txn = deployment.primary.begin()
        for rowid in rowids[:25]:
            deployment.primary.update(txn, "T", rowid, {"n1": -11.0})
        deployment.primary.commit(txn)
        deployment.run(0.05)  # redo shipped, not necessarily applied
        kill_primary(deployment)
        final = terminal_recovery(deployment.standby, deployment.sched)
        assert final >= 1
        result = deployment.standby.query("T", [Predicate.eq("n1", -11.0)])
        assert len(result.rows) == 25  # nothing shipped was lost


class TestFailover:
    def test_imcs_survives_role_transition(self, ready):
        deployment, rowids = ready
        populated_before = deployment.standby.imcs.populated_rows
        assert populated_before == 100
        kill_primary(deployment)
        new_primary = failover(deployment.standby, deployment.sched)
        # the very same column store serves the new primary, no repopulation
        assert new_primary.imcs is deployment.standby.imcs
        assert new_primary.imcs.populated_rows == populated_before
        result = new_primary.query("T", [Predicate.eq("c1", "v3")])
        assert len(result.rows) == 20
        assert result.stats.imcus_used >= 1

    def test_new_primary_accepts_dml_with_imcs_maintenance(self, ready):
        deployment, rowids = ready
        kill_primary(deployment)
        new_primary = failover(deployment.standby, deployment.sched)

        txn = new_primary.begin()
        new_primary.update(txn, "T", rowids[0], {"n1": -99.0})
        new_primary.insert(txn, "T", (7777, 7.0, "post-failover"))
        new_primary.commit(txn)

        # commit-hook invalidation keeps the carried-over IMCUs honest
        hot = new_primary.query("T", [Predicate.eq("n1", -99.0)])
        assert len(hot.rows) == 1
        fresh = new_primary.query("T", [Predicate.eq("c1", "post-failover")])
        assert len(fresh.rows) == 1
        stale = new_primary.query("T", [Predicate.eq("n1", 0.0)])
        assert all(row[0] != 0 for row in stale.rows)

    def test_transaction_ids_do_not_collide(self, ready):
        deployment, rowids = ready
        recovered = set(deployment.standby.txn_table._states)
        kill_primary(deployment)
        new_primary = failover(deployment.standby, deployment.sched)
        txn = new_primary.begin()
        assert txn.xid not in recovered
        new_primary.insert(txn, "T", (8888, 1.0, "x"))
        new_primary.commit(txn)

    def test_scn_continuity(self, ready):
        deployment, rowids = ready
        final_query_scn = deployment.standby.query_scn.value
        kill_primary(deployment)
        new_primary = failover(deployment.standby, deployment.sched)
        assert new_primary.clock.current > final_query_scn
        txn = new_primary.begin()
        new_primary.insert(txn, "T", (9999, 1.0, "x"))
        commit_scn = new_primary.commit(txn)
        assert commit_scn > final_query_scn

    def test_feature_state_carries_over(self, ready):
        deployment, rowids = ready
        standby = deployment.standby
        deployment.create_table(simple_table_def(name="U"))
        load(deployment, table="U", n=5)
        deployment.enable_inmemory("U", service=InMemoryService.STANDBY)
        deployment.run_until_standby_has("U")
        standby.add_inmemory_expression("T", Expression(
            "twice", ("n1",), lambda n: None if n is None else 2 * n,
        ))
        deployment.catch_up()
        kill_primary(deployment)
        new_primary = failover(standby, deployment.sched)
        # the expression and the units that materialise it carry over
        result = new_primary.query("T", [Predicate.gt("twice", 150)], ["id"])
        assert sorted(row[0] for row in result.rows) == list(range(76, 100))
        assert result.stats.imcus_used >= 1
        assert result.stats.imcus_unusable == 0
        joined = new_primary.join(
            "T", "c1", "U", "c1", columns_a=["id"], columns_b=["id"]
        )
        assert len(joined.rows) == 100  # each T row meets one U row
        # aggregation push-down runs against the carried-over IMCS
        result = new_primary.aggregate(
            "T", [AggregateSpec("count"), AggregateSpec("max", "n1")]
        )
        assert result.values == [100, 99.0]
        assert result.pushed_down_rows > 0


class TestActivation:
    def test_activated_primary_mounts_the_standby_core(
        self, ready, monkeypatch
    ):
        """One core, two roles: the activated primary takes the standby's
        core by identity and runs its own engines over it."""
        deployment, __ = ready
        standby = deployment.standby
        kill_primary(deployment)
        new_primary = failover(standby, deployment.sched)
        for name in (
            "block_store", "catalog", "txn_table", "imcs",
        ):
            assert getattr(new_primary, name) is getattr(standby, name), name
        assert new_primary.scan_engine is not standby.scan_engine
        scanned_by = []
        for db in (new_primary, standby):
            scan = db.scan_engine.scan

            def counted(*args, _db=db, _scan=scan, **kwargs):
                scanned_by.append(_db)
                return _scan(*args, **kwargs)

            monkeypatch.setattr(db.scan_engine, "scan", counted)
        assert new_primary.aggregate(
            "T", [AggregateSpec("count")]
        ).values == [100]
        assert len(new_primary.join("T", "id", "T", "id").rows) == 100
        assert len(scanned_by) >= 2
        assert all(db is new_primary for db in scanned_by)

    def test_in_flight_transaction_is_rolled_back(self, ready):
        """A transaction still open when the primary is lost is a loser:
        activation strips its update, insert and delete and aborts it, so
        the new primary serves the old primary's CR at the final QuerySCN
        and none of the loser's rows stays locked."""
        deployment, rowids = ready
        old = deployment.primary
        loser = old.begin()
        old.update(loser, "T", rowids[3], {"n1": -3.0})
        old.insert(loser, "T", (500, 5.0, "loser"))
        old.delete(loser, "T", rowids[4])
        deployment.run(0.2)
        kill_primary(deployment)
        standby = deployment.standby
        final = terminal_recovery(standby, deployment.sched)
        assert txn_state(standby.txn_table, loser.xid) is TxnState.ACTIVE
        assert standby.catalog.table("T").indexes["id"].search(500)

        new_primary = failover(standby, deployment.sched)
        assert txn_state(new_primary.txn_table, loser.xid) is TxnState.ABORTED
        expected = old.scan_engine.scan(old.catalog.table("T"), final).rows
        assert sorted(new_primary.query("T").rows) == sorted(expected)
        table = new_primary.catalog.table("T")
        assert_indexes_match_heap(table)
        assert table.indexes["id"].search(500) is None

        txn = new_primary.begin()
        new_primary.update(txn, "T", rowids[3], {"n1": 3.5})
        new_primary.update(txn, "T", rowids[4], {"n1": 4.5})
        new_primary.insert(txn, "T", (500, 5.0, "winner"))
        new_primary.commit(txn)
        assert new_primary.index_fetch("T", "id", 3) == (3, 3.5, "v3")
        assert new_primary.index_fetch("T", "id", 4) == (4, 4.5, "v4")
        assert new_primary.index_fetch("T", "id", 500) == (500, 5.0, "winner")
        assert_indexes_match_heap(table)

    def test_sequences_resume_past_the_recovered_transactions(self, ready):
        deployment, __ = ready
        standby = deployment.standby
        highest = standby.txn_table.highest_sequence(1)
        assert highest >= 1
        assert standby.txn_table.highest_sequence(2) == 0
        kill_primary(deployment)
        new_primary = failover(standby, deployment.sched, n_instances=2)
        assert new_primary.begin().xid.sequence == highest + 1
        assert new_primary.begin(instance_id=2).xid.sequence == 1


class TestDetachByIdentity:
    def test_lose_primary_leaves_nothing_of_the_primary_scheduled(self, ready):
        deployment, __ = ready
        deployment.lose_primary()
        left = deployment.sched.actors
        assert not any(isinstance(actor, LogShipper) for actor in left)
        names = [actor.name for actor in left]
        assert not [n for n in names if "heartbeat" in n or "primary" in n]
        # the standby's own pipeline is untouched
        assert deployment.standby_mounted
        assert "standby-1-recovery-coordinator" in names

    def test_failover_of_one_member_detaches_exactly_its_actors(self):
        """A member that fails over takes every actor it attached with it
        -- population workers and undo retention included -- so exactly
        one set of population workers (the activated primary's) feeds the
        carried-over column store, and the other member keeps serving."""
        deployment = Deployment.build(config=small_config(), n_standbys=2)
        deployment.create_table(simple_table_def())
        load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.catch_up()
        first, second = deployment.members
        attached = list(first.standby._actors)
        assert any(isinstance(a, PopulationWorker) for a in attached)

        new_primary = failover(first.standby, deployment.sched)
        scheduled = deployment.sched.actors
        assert not [a for a in attached if a in scheduled]
        assert not first.mounted and second.mounted
        feeding = [
            a for a in scheduled
            if isinstance(a, PopulationWorker)
            and a.engine.store is new_primary.imcs
        ]
        assert [a.engine for a in feeding] == [new_primary.population]
        assert len(new_primary.query("T").rows) == 100

        load(deployment, n=10, start=1_000)
        deployment.catch_up()
        assert len(second.query("T").rows) == 110
