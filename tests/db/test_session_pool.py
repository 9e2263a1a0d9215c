"""Router admission control and failover-aware routing over a 1-member
deployment."""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidStateError, ObjectNotFoundError
from repro.db import InMemoryService, Role, Service
from repro.db.failover import failover
from repro.fleet import FleetRouter
from repro.query import AdmissionTimeout, PoolExhaustedError

from tests.db.conftest import load, simple_table_def


@pytest.fixture
def bounded(deployment):
    deployment.create_table(simple_table_def())
    load(deployment)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    deployment.catch_up()
    pool = FleetRouter(deployment, max_sessions=2)
    pool.registry.create("oltp", Service.PRIMARY_ONLY)
    pool.registry.create("reports", Service.STANDBY_ONLY)
    pool.registry.create("mixed", Service.PRIMARY_AND_STANDBY)
    return deployment, pool


class TestBoundedConnect:
    def test_connect_raises_at_capacity(self, bounded):
        __, pool = bounded
        s1 = pool.connect("reports")
        pool.connect("reports")
        with pytest.raises(PoolExhaustedError):
            pool.connect("reports")
        s1.close()
        assert pool.connect("reports").target.role is Role.STANDBY

    def test_close_is_idempotent(self, bounded):
        __, pool = bounded
        session = pool.connect("reports")
        session.close()
        session.close()
        assert pool.admission.active == 0

    def test_context_manager_releases(self, bounded):
        __, pool = bounded
        with pool.connect("reports") as session:
            assert not session.closed
        assert session.closed and pool.admission.active == 0

    def test_unknown_service_fails_without_consuming_slot(self, bounded):
        __, pool = bounded
        with pytest.raises(ObjectNotFoundError):
            pool.connect("nope")
        assert pool.admission.active == 0

    def test_unbounded_pool_backwards_compatible(self, bounded):
        deployment, __ = bounded
        pool = FleetRouter(deployment)
        pool.registry.create("reports", Service.STANDBY_ONLY)
        for __ in range(10):
            pool.connect("reports")


class TestQueuedConnect:
    def test_pending_resolves_on_close(self, bounded):
        __, pool = bounded
        s1 = pool.connect("reports")
        pool.connect("reports")
        pending = pool.connect_queued("reports")
        assert not pending.ready
        with pytest.raises(InvalidStateError):
            pending.get()
        s1.close()
        assert pending.ready
        assert pending.get().target.role is Role.STANDBY

    def test_pending_timeout(self, bounded):
        deployment, pool = bounded
        pool.connect("reports")
        pool.connect("reports")
        pending = pool.connect_queued("reports", timeout=1.0)
        deployment.run(2.0)
        pool.expire_waiters()
        assert pending.timed_out
        with pytest.raises(AdmissionTimeout):
            pending.get()

    def test_immediate_grant_when_slot_free(self, bounded):
        __, pool = bounded
        pending = pool.connect_queued("reports")
        assert pending.ready
        assert pending.get().target.role is Role.STANDBY
        assert pool.admission.active == 1


class TestFailoverRouting:
    def test_mixed_routes_to_primary_after_failover(self, bounded):
        deployment, pool = bounded
        assert pool.connect("mixed").target.role is Role.STANDBY
        failover(deployment.standby, deployment.sched)
        assert not deployment.standby_mounted
        assert pool.connect("mixed").target.role is Role.PRIMARY

    def test_standby_only_fails_fast_after_failover(self, bounded):
        deployment, pool = bounded
        failover(deployment.standby, deployment.sched)
        with pytest.raises(InvalidStateError):
            pool.connect("reports")
        # the failed route must not leak its admission slot
        assert pool.admission.active == 0
