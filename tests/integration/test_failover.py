"""Integration tests: failover to the standby with IMCS carry-over."""

import pytest

from repro.db import Deployment, InMemoryService
from repro.db.failover import failover, terminal_recovery
from repro.imcs import AggregateSpec, Predicate
from repro.imcs.population import PopulationWorker
from repro.redo.shipping import LogShipper

from tests.db.conftest import load, simple_table_def, small_config


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
        standby.create_join_group("cg", [("T", "c1"), ("U", "c1")])
        deployment.catch_up()
        kill_primary(deployment)
        new_primary = failover(standby, deployment.sched)
        # the join group and its shared dictionary carry over
        joined = new_primary.join(
            "T", "c1", "U", "c1", columns_a=["id"], columns_b=["id"]
        )
        assert len(joined.rows) == 100  # each T row meets one U row
        assert joined.stats.used_join_group
        assert joined.stats.code_path_rows == 100
        # aggregation push-down runs against the carried-over IMCS
        result = new_primary.aggregate(
            "T", [AggregateSpec("count"), AggregateSpec("max", "n1")]
        )
        assert result.values == [100, 99.0]
        assert result.pushed_down_rows > 0


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
