"""FleetRouter: typed targets, routing policy, capacity, standby loss."""

from __future__ import annotations

import pytest

from repro.common import InvalidStateError
from repro.db import Deployment, InMemoryService, Role, RouteTarget, Service
from repro.fleet import FleetRouter
from repro.fleet.router import LOAD_WEIGHT
from repro.query import PoolExhaustedError

from tests.db.conftest import simple_table_def, small_config
from tests.fleet.conftest import load_fleet


class TestTypedRouting:
    def test_standby_session_carries_member_target(self, router):
        session = router.connect("reports")
        assert session.target == RouteTarget(Role.STANDBY, "standby-1")
        assert session.target.is_standby
        assert session.target.describe() == "standby:standby-1"
        assert session.member is router.fleet.member("standby-1")
        session.close()

    def test_primary_session_has_no_member(self, router):
        session = router.connect("oltp")
        assert session.target == RouteTarget(Role.PRIMARY)
        assert session.member is None
        session.close()

    def test_unknown_service_rejected(self, router):
        from repro.common.errors import ObjectNotFoundError

        with pytest.raises(ObjectNotFoundError):
            router.connect("nope")

    def test_unknown_policy_rejected(self, fleet):
        """There is one routing policy: none can be selected."""
        deployment, __ = fleet
        with pytest.raises(TypeError):
            FleetRouter(deployment, policy="random")

    def test_session_counts_tracked_per_member(self, router):
        member = router.fleet.member("standby-1")
        session = router.connect("reports")
        assert member.active_sessions == 1
        session.close()
        assert member.active_sessions == 0


class TestPolicies:
    def test_lag_aware_balances_by_load(self, router):
        sessions = [router.connect("reports") for __ in range(3)]
        landed = sorted(s.member.name for s in sessions)
        assert landed == ["standby-1", "standby-2", "standby-3"]
        for session in sessions:
            session.close()

    def test_lag_aware_avoids_lagging_member(self, fleet):
        deployment, __ = fleet
        router = FleetRouter(deployment)
        router.registry.create("reports", Service.STANDBY_ONLY)
        # stop shipping to the routing favourite and generate redo: its
        # published QuerySCN now trails the others
        for shipper in deployment.shippers:
            shipper.remove_destination("standby-1")
        load_fleet(deployment, n=30, start=1000)
        target = deployment.primary.clock.current
        deployment.sched.run_until_condition(
            lambda: all(
                m.published_scn >= target
                for m in deployment.members if m.name != "standby-1"
            ),
            max_time=60.0,
        )
        lag = deployment.member_lag(deployment.member("standby-1"))
        assert lag > LOAD_WEIGHT  # enough to dominate the score
        session = router.connect("reports")
        assert session.member.name != "standby-1"
        session.close()



class TestCapacity:
    def test_connect_raises_at_capacity(self, fleet):
        deployment, __ = fleet
        router = FleetRouter(deployment, max_sessions=2)
        router.registry.create("reports", Service.STANDBY_ONLY)
        a = router.connect("reports")
        b = router.connect("reports")
        with pytest.raises(PoolExhaustedError):
            router.connect("reports")
        a.close()
        c = router.connect("reports")
        for session in (b, c):
            session.close()

    def test_queued_connect_granted_on_release(self, fleet):
        deployment, __ = fleet
        router = FleetRouter(deployment, max_sessions=1)
        router.registry.create("reports", Service.STANDBY_ONLY)
        holder = router.connect("reports")
        pending = router.connect_queued("reports")
        assert not pending.ready
        assert router.decisions["queued"]["reports"] == 1
        holder.close()
        assert pending.ready
        session = pending.get()
        assert session.target.is_standby
        session.close()


class TestTransactions:
    def test_primary_session_reads_its_own_writes(self, router, fleet):
        """A write committed on the primary is visible at once through a
        primary-routed session: the primary covers every commitSCN."""
        deployment, rowids = fleet
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": -1.0})
        scn = deployment.primary.commit(txn)
        session = router.connect("oltp")
        handle = session.submit("T")
        assert handle.done and handle.scn >= scn
        assert -1.0 in [row[1] for row in handle.result.rows]
        session.close()

    def test_standby_session_rejects_writes(self, router, fleet):
        """There is no write path to a member: the session and the
        member's database are read-only by construction."""
        __, rowids = fleet
        session = router.connect("reports")
        with pytest.raises(AttributeError):
            session.update("T", rowids[0], {"n1": -1.0})
        assert not hasattr(session.member.standby, "update")
        session.close()


class TestStandbyLoss:
    def test_sessions_drain_to_surviving_members(self, router):
        deployment = router.fleet
        session = router.connect("reports")
        assert session.member.name == "standby-1"
        generation = session.generation
        deployment.lose_standby("standby-1")
        assert session.member.name in ("standby-2", "standby-3")
        assert session.generation == generation + 1
        assert not session.closed and not session.lost
        assert router.decisions["drained"]["reports"] == 1
        assert router.routed_unmounted == 0
        session.close()

    def test_total_loss_fails_over_to_primary(self, router):
        deployment = router.fleet
        session = router.connect("mixed")
        for name in ("standby-1", "standby-2", "standby-3"):
            deployment.lose_standby(name)
        assert not session.target.is_standby and session.member is None
        assert router.decisions["failed_over"]["mixed"] == 1
        # the failed-over session still serves reads (from the primary)
        handle = session.submit("T")
        assert handle.done and len(handle.result.rows) == 100
        session.close()

    def test_total_loss_strands_standby_only_sessions(self, router):
        deployment = router.fleet
        session = router.connect("reports")
        for name in ("standby-1", "standby-2", "standby-3"):
            deployment.lose_standby(name)
        assert session.lost and session.closed
        # and new standby-only connects are refused outright
        with pytest.raises(InvalidStateError):
            router.connect("reports")

    def test_decision_counters_feed_obs(self, fleet):
        from repro import obs

        deployment, __ = fleet
        registry = obs.MetricsRegistry()
        with obs.collecting(registry):
            router = FleetRouter(deployment)
            router.registry.create("reports", Service.STANDBY_ONLY)
            session = router.connect("reports")
            session.close()
        counter = registry.get(
            "fleet.router.routed",
            service="reports", target="standby:standby-1",
        )
        assert counter is not None and counter.value == 1


class TestRacMemberSession:
    def test_session_reads_at_the_scn_it_reports(self):
        """A session on a 2-instance SIRA member with no query service
        used to scan instance 1 at instance 1's QuerySCN and stamp the
        handle with the member's lower one: whenever instance 1 ran
        ahead of its peer, the rows were not the primary's consistent
        read at ``handle.scn``.  It reads through ``member.query`` now."""
        deployment = Deployment.build(config=small_config())
        member = deployment.add_standby_cluster(n_instances=2)
        deployment.create_table(simple_table_def())
        rowids, __ = load_fleet(deployment, n=40)
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.catch_up()
        router = FleetRouter(deployment)
        router.registry.create("reports", Service.STANDBY_ONLY)
        session = router.connect("reports")
        primary = deployment.primary
        table = primary.catalog.table("T")
        ahead = 0
        for i in range(400):
            txn = primary.begin()
            primary.update(txn, "T", rowids[i % 40], {"n1": float(i)})
            primary.commit(txn)
            deployment.run(0.0001)
            master, peer = (inst.query_scn.value for inst in member.instances)
            ahead += master > peer
            handle = session.submit("T")
            assert handle.scn == member.published_scn
            expected = table.full_scan(handle.scn, primary.txn_table)
            assert sorted(handle.result.rows) == sorted(
                values for __, values in expected
            )
        assert ahead  # the case the old read path got wrong
        session.close()
