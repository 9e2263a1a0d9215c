"""Tests for service-routed sessions and their SQL."""

import pytest

from repro.db import InMemoryService, Role, Service
from repro.db.sql import SQLSyntaxError, parse_query
from repro.fleet import FleetRouter

from tests.db.conftest import load, simple_table_def


@pytest.fixture
def pool(deployment):
    deployment.create_table(simple_table_def())
    load(deployment)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    deployment.catch_up()
    pool = FleetRouter(deployment)
    pool.registry.create("oltp", Service.PRIMARY_ONLY)
    pool.registry.create("reports", Service.STANDBY_ONLY)
    pool.registry.create("mixed", Service.PRIMARY_AND_STANDBY)
    return deployment, pool


class TestRouting:
    def test_service_routes_session(self, pool):
        __, sessions = pool
        assert sessions.connect("oltp").target.role is Role.PRIMARY
        assert sessions.connect("reports").target.role is Role.STANDBY
        assert sessions.connect("mixed").target.role is Role.STANDBY

    def test_standby_session_is_read_only(self, pool):
        """Read-only by construction: neither the session nor the
        standby database it is pinned to has a write method."""
        __, sessions = pool
        session = sessions.connect("reports")
        for database in (session, session.member.standby):
            for write in ("begin", "insert", "update", "delete", "commit"):
                assert not hasattr(database, write), write


class TestSessionSQL:
    def test_query_on_standby_session(self, pool):
        __, sessions = pool
        session = sessions.connect("reports")
        rows = session.execute("SELECT * FROM T WHERE c1 = :1", {1: "v2"})
        assert len(rows) == 20

    def test_aggregate_query(self, pool):
        __, sessions = pool
        session = sessions.connect("reports")
        count, total = session.execute(
            "SELECT COUNT(*), SUM(n1) FROM T WHERE n1 < 10"
        )
        assert count == 10
        assert total == sum(range(10))


class TestSessionDML:
    """Writes go to the primary (a session only reads); a standby
    session sees them once the standby has caught up."""

    def test_write_read_cycle(self, pool):
        deployment, sessions = pool
        txn = deployment.primary.begin()
        deployment.primary.insert(txn, "T", (5000, 1.0, "fresh"))
        deployment.primary.commit(txn)
        deployment.catch_up()
        reader = sessions.connect("reports")
        rows = reader.execute("SELECT * FROM T WHERE c1 = 'fresh'")
        assert len(rows) == 1

    def test_rollback_discards(self, pool):
        deployment, sessions = pool
        txn = deployment.primary.begin()
        deployment.primary.insert(txn, "T", (6000, 1.0, "ghost"))
        deployment.primary.rollback(txn)
        deployment.catch_up()
        reader = sessions.connect("reports")
        assert reader.execute("SELECT * FROM T WHERE c1 = 'ghost'") == []


class TestGroupBy:
    """GROUP BY is not in the dialect (DESIGN §3, "Removed")."""

    def test_group_by_is_a_syntax_error(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT c1, COUNT(*) FROM t GROUP BY c1")

    def test_mixed_without_group_by_still_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT a, COUNT(*) FROM t")
