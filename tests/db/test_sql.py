"""Tests for the miniature SQL layer."""

import pytest

from repro.db import InMemoryService
from repro.db.sql import SQLSyntaxError, parse_query
from repro.imcs.scan import ScanResult

from tests.db.conftest import load, simple_table_def


class FakeDatabase:
    """Records the scan request; returns canned rows."""

    def __init__(self, rows=None):
        self.rows = rows or []
        self.calls = []

    def query(self, table, predicates, columns, partitions):
        self.calls.append((table, predicates, columns, partitions))
        result = ScanResult()
        result.rows = list(self.rows)
        return result


class TestParsing:
    def test_table1_q1_shape(self):
        query = parse_query("SELECT * FROM C101_6P1M_HASH WHERE n1 = :1")
        assert query.table == "C101_6P1M_HASH"
        assert query.columns is None
        assert len(query.predicates) == 1
        assert query.predicates[0].column == "n1"
        assert query.predicates[0].op == "="

    def test_projection_list(self):
        query = parse_query("SELECT a, b FROM t")
        assert query.columns == ["a", "b"]

    def test_between_and_conjunction(self):
        query = parse_query(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b = 'x'"
        )
        assert len(query.predicates) == 2
        assert query.predicates[0].op == "between"
        assert query.predicates[1].op == "="

    def test_is_null_variants(self):
        q1 = parse_query("SELECT * FROM t WHERE a IS NULL")
        q2 = parse_query("SELECT * FROM t WHERE a IS NOT NULL")
        assert q1.predicates[0].op == "is_null"
        assert q2.predicates[0].op == "is_not_null"

    def test_inequalities(self):
        query = parse_query("SELECT * FROM t WHERE a <> 5 AND b >= 2 AND c < 'm'")
        assert [p.op for p in query.predicates] == ["!=", ">=", "<"]

    def test_partition_clause(self):
        query = parse_query("SELECT * FROM sales PARTITION (JAN)")
        assert query.partition == "JAN"

    def test_aggregates(self):
        query = parse_query("SELECT COUNT(*), SUM(amount), AVG(amount) FROM t")
        assert query.aggregates == [
            ("count", None), ("sum", "amount"), ("avg", "amount"),
        ]

    def test_mixed_agg_and_plain_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT a, COUNT(*) FROM t")

    def test_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("DELETE FROM t")
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT * FROM t WHERE a LIKE 'x%'")

    def test_dangling_between_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT * FROM t WHERE a BETWEEN 1")


class TestExecution:
    def test_binds_resolved(self):
        database = FakeDatabase()
        query = parse_query("SELECT * FROM t WHERE n1 = :1 AND c1 = :2")
        query.run(database, {1: 42.0, 2: "x"})
        __, predicates, ___, ____ = database.calls[0]
        assert predicates[0].value == 42.0
        assert predicates[1].value == "x"

    def test_missing_bind_raises(self):
        query = parse_query("SELECT * FROM t WHERE n1 = :1")
        with pytest.raises(SQLSyntaxError):
            query.run(FakeDatabase(), {})

    def test_literals(self):
        database = FakeDatabase()
        query = parse_query("SELECT * FROM t WHERE a = 5 AND b = 2.5 AND c = 'hi'")
        query.run(database)
        predicates = database.calls[0][1]
        assert [p.value for p in predicates] == [5, 2.5, "hi"]

    def test_aggregate_execution(self, loaded_deployment):
        """Aggregates fold inside the scan on either database; a NULL
        counts for COUNT(*) only."""
        deployment, __ = loaded_deployment
        txn = deployment.primary.begin()
        deployment.primary.insert(txn, "T", (100, None, "x"))
        deployment.primary.commit(txn)
        deployment.catch_up()
        query = parse_query(
            "SELECT COUNT(*), SUM(n1), MAX(n1) FROM T WHERE id >= 98"
        )
        for database in (deployment.primary, deployment.standby):
            assert query.run(database) == [3, 197.0, 99.0]

    def test_count_only_projects_nothing_specific(self, loaded_deployment):
        deployment, __ = loaded_deployment
        query = parse_query("SELECT COUNT(*) FROM T WHERE c1 = 'v1'")
        for database in (deployment.primary, deployment.standby):
            assert query.run(database) == [20]

    def test_partition_passed_through(self):
        database = FakeDatabase()
        parse_query("SELECT * FROM t PARTITION (FEB)").run(database)
        assert database.calls[0][3] == ["FEB"]


class TestEqualityAcrossKinds:
    """``c1 = 5`` / ``n1 = 'x'``: an equality whose literal the column's
    kind cannot hold matches nothing -- on the standby's IMCS scan (the
    storage index used to raise comparing the literal with its min/max)
    exactly as on the primary's Consistent Read scan."""

    @pytest.fixture
    def deployment(self, deployment):
        deployment.create_table(simple_table_def())
        load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.catch_up()
        return deployment

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM T WHERE c1 = 5",
        "SELECT * FROM T WHERE n1 = 'x'",
        "SELECT id FROM T WHERE id >= 0 AND c1 = 2.5",
    ])
    def test_standby_answers_as_the_primary(self, deployment, sql):
        query = parse_query(sql)
        standby = query.run(deployment.standby)
        assert standby.stats.imcus_pruned > 0  # the IMCS path answered
        assert standby.rows == query.run(deployment.primary).rows == []

    def test_a_range_over_the_other_kind_still_raises(self, deployment):
        query = parse_query("SELECT * FROM T WHERE n1 < 'x'")
        for database in (deployment.standby, deployment.primary):
            with pytest.raises(TypeError):
                query.run(database)
