"""Read-your-writes routing: commitSCN floors across the fleet.

The contract under test (the PR's property): a session carrying a
last-seen commitSCN ``C`` never receives a result computed at a
published QuerySCN < ``C`` — across routing, failover and standby loss.
"""

from __future__ import annotations

import pytest

from repro.db import Deployment, InMemoryService, Service
from repro.fleet import FleetRouter, SessionWave, WaveConfig
from repro.query import AdmissionTimeout

from tests.db.conftest import simple_table_def, small_config
from tests.fleet.conftest import load_fleet


def commit_one(fleet, rowids, value=-5.0):
    """One primary write-and-commit; returns the commitSCN floor."""
    txn = fleet.primary.begin()
    fleet.primary.update(txn, "T", rowids[0], {"n1": value})
    return fleet.primary.commit(txn)


class TestFloors:
    def test_covered_floor_routes_to_standby(self, router, fleet):
        deployment, rowids = fleet
        floor = commit_one(deployment, rowids)
        deployment.catch_up()
        # a floor some member already covers grants at once, no wait
        pending = router.connect_queued("mixed", min_scn=floor)
        assert pending.ready
        assert "mixed" not in router.decisions["queued"]
        session = pending.get()
        assert session.target.is_standby
        assert session.member.published_scn >= floor
        handle = session.submit("T")
        assert handle.scn >= floor
        session.close()
        assert router.ryw_grants[-1][0] == floor
        assert router.ryw_grants[-1][1] >= floor


class TestQueuedFloors:
    def test_waiter_admits_when_a_member_catches_up(self, router, fleet):
        deployment, rowids = fleet
        floor = commit_one(deployment, rowids)
        pending = router.connect_queued("reports", min_scn=floor)
        assert not pending.ready
        assert router.decisions["queued"]["reports"] == 1
        # the QuerySCN publication pumps the admission queue: the waiter
        # admits the moment a member covers the floor, no polling
        deployment.sched.run_until_condition(
            lambda: pending.ready, max_time=60.0
        )
        session = pending.get()
        assert session.member is not None
        assert session.member.published_scn >= floor
        assert router.ryw_violations == 0
        session.close()

    def test_waiter_admits_when_the_last_instance_publishes(self):
        """A RAC member covers a floor when its last instance publishes,
        one interconnect hop after the master: the grant (and the lag
        gauge) follows that publication, not the next master one."""
        deployment = Deployment.build(config=small_config())
        member = deployment.add_standby_cluster(n_instances=2)
        deployment.create_table(simple_table_def())
        rowids, __ = load_fleet(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.catch_up()
        router = FleetRouter(deployment)
        router.registry.create("reports", Service.STANDBY_ONLY)
        for i in range(10):
            floor = commit_one(deployment, rowids, value=float(i))
            pending = router.connect_queued("reports", min_scn=floor)
            assert not pending.ready
            assert deployment.sched.run_until_condition(
                lambda: member.published_scn >= floor, max_time=5.0
            )
            assert pending.ready
            assert pending.granted_at == deployment.sched.now
            assert member.lag_scns == deployment.member_lag(member)
            pending.get().close()
        assert router.ryw_violations == 0

    def test_waiter_never_covered_expires_with_deadline_error(
        self, router, fleet
    ):
        deployment, __ = fleet
        # a floor no member can ever reach (nothing generates this redo)
        floor = deployment.primary.clock.current + 10_000
        pending = router.connect_queued(
            "reports", min_scn=floor, timeout=0.05
        )
        assert not pending.ready
        deployment.run(0.2)
        # the QuerySCN-publication pump expires lazily during the run;
        # an explicit sweep afterwards is idempotent
        router.expire_waiters()
        assert pending.timed_out
        with pytest.raises(AdmissionTimeout):
            pending.get()
        # the expired waiter released nothing it never held
        assert router.admission.active == 0
        assert router.decisions["expired"]["reports"] == 1

    def test_stranded_waiter_redistributes_on_standby_loss(self, fleet):
        deployment, rowids = fleet
        router = FleetRouter(deployment)
        router.registry.create("mixed", Service.PRIMARY_AND_STANDBY)
        floor = commit_one(deployment, rowids)
        pending = router.connect_queued("mixed", min_scn=floor)
        assert not pending.ready
        # every member dies before any covers the floor: the pump at
        # loss time lets PRIMARY_AND_STANDBY fail the waiter over
        for member in list(deployment.members):
            deployment.lose_standby(member.name)
        assert pending.ready
        session = pending.get()
        assert not session.target.is_standby
        assert session.submit("T").scn >= floor
        session.close()


class TestProperty:
    def test_no_stale_grant_across_wave_and_loss(self, fleet):
        """Seeded client wave, member lost mid-flight: every grant that
        carried a floor was covering, and no result ran below it."""
        deployment, rowids = fleet
        router = FleetRouter(deployment, max_sessions=16)
        router.registry.create("mixed", Service.PRIMARY_AND_STANDBY)
        wave = SessionWave(
            deployment, router,
            WaveConfig(
                n_clients=60, arrival_rate=500.0, writer_fraction=0.5,
                connect_timeout=2.0, service_name="mixed", seed=99,
            ),
            rowids=rowids,
        )
        deployment.sched.add_actor(wave)
        deployment.sched.call_after(
            0.04, lambda: deployment.lose_standby("standby-1")
        )
        assert deployment.sched.run_until_condition(
            lambda: wave.done, max_time=120.0
        )
        assert len(wave.finished_records()) == 60
        assert router.ryw_violations == 0
        assert router.routed_unmounted == 0
        for floor, granted, __ in router.ryw_grants:
            assert granted >= floor
        # writers really did carry floors into the audit
        writers = [r for r in wave.records if r.kind == "writer"]
        assert writers and all(r.min_scn > 0 for r in writers)
