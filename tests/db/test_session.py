"""Tests for service-routed sessions and the SQL GROUP BY extension."""

import pytest

from repro.db import InMemoryService, Service
from repro.db.sql import SQLSyntaxError, parse_query
from repro.fleet import FleetRouter, ReadOnlyError

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
        assert sessions.connect("oltp").role == "primary"
        assert sessions.connect("reports").role == "standby"
        assert sessions.connect("mixed").role == "standby"
        assert sessions.connect("mixed", prefer_standby=False).role == "primary"

    def test_standby_session_is_read_only(self, pool):
        __, sessions = pool
        session = sessions.connect("reports")
        assert session.is_read_only
        with pytest.raises(ReadOnlyError):
            session.insert("T", (999, 1.0, "x"))
        with pytest.raises(ReadOnlyError):
            session.begin()
        with pytest.raises(ReadOnlyError):
            session.commit()


class TestSessionSQL:
    def test_query_on_standby_session(self, pool):
        __, sessions = pool
        session = sessions.connect("reports")
        rows = session.execute("SELECT * FROM T WHERE c1 = :1", {1: "v2"})
        assert len(rows) == 20
        assert session.queries_run == 1

    def test_aggregate_query(self, pool):
        __, sessions = pool
        session = sessions.connect("reports")
        count, total = session.execute(
            "SELECT COUNT(*), SUM(n1) FROM T WHERE n1 < 10"
        )
        assert count == 10
        assert total == sum(range(10))


class TestSessionDML:
    def test_write_read_cycle(self, pool):
        deployment, sessions = pool
        writer = sessions.connect("oltp")
        writer.insert("T", (5000, 1.0, "fresh"))
        writer.commit()
        deployment.catch_up()
        reader = sessions.connect("reports")
        rows = reader.execute("SELECT * FROM T WHERE c1 = 'fresh'")
        assert len(rows) == 1

    def test_rollback_discards(self, pool):
        deployment, sessions = pool
        writer = sessions.connect("oltp")
        writer.insert("T", (6000, 1.0, "ghost"))
        writer.rollback()
        deployment.catch_up()
        reader = sessions.connect("reports")
        assert reader.execute("SELECT * FROM T WHERE c1 = 'ghost'") == []

    def test_double_begin_rejected(self, pool):
        from repro.common import InvalidStateError

        __, sessions = pool
        writer = sessions.connect("oltp")
        writer.begin()
        with pytest.raises(InvalidStateError):
            writer.begin()


class TestGroupBy:
    def test_group_by_counts(self, pool):
        __, sessions = pool
        session = sessions.connect("reports")
        groups = session.execute(
            "SELECT c1, COUNT(*) FROM T GROUP BY c1"
        )
        assert dict(groups) == {f"v{i}": 20 for i in range(5)}

    def test_group_by_with_aggregates_and_where(self, pool):
        __, sessions = pool
        session = sessions.connect("reports")
        groups = session.execute(
            "SELECT c1, COUNT(*), MAX(n1) FROM T WHERE n1 < 50 GROUP BY c1"
        )
        # ids 0..49 -> 10 per bucket; max n1 per bucket = (bucket's max id)*1.0
        as_dict = {key: (count, biggest) for key, count, biggest in groups}
        assert as_dict["v0"] == (10, 45.0)
        assert as_dict["v4"] == (10, 49.0)

    def test_group_by_requires_aggregate(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT c1 FROM t GROUP BY c1")

    def test_select_list_must_match_group_by(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT c2, COUNT(*) FROM t GROUP BY c1")

    def test_mixed_without_group_by_still_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT a, COUNT(*) FROM t")

    def test_group_by_multiple_columns(self, pool):
        __, sessions = pool
        session = sessions.connect("reports")
        groups = session.execute(
            "SELECT c1, id, COUNT(*) FROM T WHERE id < 3 GROUP BY c1, id"
        )
        assert len(groups) == 3
        assert all(count == 1 for __, ___, count in groups)
