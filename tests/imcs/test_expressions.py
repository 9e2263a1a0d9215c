"""Tests for In-Memory Expressions (section V feature)."""

import pytest

from repro.common import TransactionId
from repro.common.config import IMCSConfig
from repro.imcs import (
    Expression,
    ExpressionSet,
    InMemoryColumnStore,
    PopulationEngine,
    Predicate,
    RowResolver,
    ScanEngine,
)

from tests.imcs.conftest import load_rows


def double_n1():
    return Expression(
        "n1_doubled", ("n1",),
        lambda n1: None if n1 is None else n1 * 2,
        is_numeric=True,
    )


def tag_expr():
    return Expression(
        "tag", ("id", "c1"),
        lambda i, c: None if c is None else f"{c}#{int(i) % 2}",
        is_numeric=False,
    )


def populated(wide_table, txns, clock, expressions=()):
    store = InMemoryColumnStore()
    store.enable(wide_table)
    oid = wide_table.default_partition.object_id
    for expression in expressions:
        store.add_expression(oid, expression)
    load_rows(wide_table, txns, clock, 40)
    engine = PopulationEngine(
        store, txns, lambda: clock.current,
        IMCSConfig(imcu_target_rows=16),
    )
    engine.schedule_all()
    while engine.run_one_task() is not None:
        pass
    return store, oid


class TestExpressionSet:
    def test_duplicate_rejected(self):
        expressions = ExpressionSet()
        expressions.add(double_n1())
        with pytest.raises(ValueError):
            expressions.add(double_n1())

    def test_lookup(self):
        expressions = ExpressionSet()
        expressions.add(double_n1())
        assert expressions.get("n1_doubled") is not None
        assert expressions.get("missing") is None


class TestRowResolver:
    def test_resolves_columns_and_expressions(self, wide_table):
        expressions = ExpressionSet()
        expressions.add(double_n1())
        resolver = RowResolver(wide_table.schema, expressions)
        row = (3, 10.0, "x")
        assert resolver.value(row, "n1") == 10.0
        assert resolver.value(row, "n1_doubled") == 20.0
        assert resolver.project(row, ["n1_doubled", "c1"]) == (20.0, "x")
        assert resolver.is_expression("n1_doubled")
        assert not resolver.is_expression("n1")


class TestMaterialisation:
    def test_expression_column_in_imcu(self, wide_table, txns, clock):
        store, oid = populated(wide_table, txns, clock, [double_n1()])
        for smu in store.segment(oid).live_units():
            assert "n1_doubled" in smu.imcu.column_names

    def test_scan_filters_on_expression_columnar(self, wide_table, txns, clock):
        store, oid = populated(wide_table, txns, clock, [double_n1()])
        scan = ScanEngine(store, txns)
        # rows have n1 = id*10 -> n1_doubled = id*20
        result = scan.scan(
            wide_table, clock.current,
            [Predicate.eq("n1_doubled", 100.0)],
            columns=["id", "n1_doubled"],
        )
        assert result.rows == [(5, 100)]
        assert result.stats.imcus_used >= 1

    def test_varchar_expression(self, wide_table, txns, clock):
        store, oid = populated(wide_table, txns, clock, [tag_expr()])
        scan = ScanEngine(store, txns)
        result = scan.scan(
            wide_table, clock.current,
            [Predicate.eq("tag", "val3#1")],
            columns=["id", "tag"],
        )
        # ids with id%5==3 and id%2==1: 3, 13, 23, 33
        assert sorted(r[0] for r in result.rows) == [3, 13, 23, 33]

    def test_fallback_rows_compute_expression(self, wide_table, txns, clock):
        store, oid = populated(wide_table, txns, clock, [double_n1()])
        __, rowids = load_rows(wide_table, txns, clock, 0) or (None, [])
        # update a row after population: reconcile path must evaluate the
        # expression on the fly
        writer = TransactionId(1, 55555)
        first_rowid = store.segment(oid).live_units()[0].imcu.rowids[0]
        wide_table.update_row(first_rowid, {"n1": 500.0}, writer,
                              clock.next(), txns)
        txns.commit(writer, clock.next())
        store.invalidate(oid, first_rowid.dba, (first_rowid.slot,),
                         clock.current)
        scan = ScanEngine(store, txns)
        result = scan.scan(
            wide_table, clock.current,
            [Predicate.eq("n1_doubled", 1000.0)],
            columns=["id", "n1_doubled"],
        )
        assert len(result.rows) == 1
        assert result.rows[0][1] == 1000.0
        assert result.stats.fallback_rows >= 1

    def test_add_expression_drops_units_for_repopulation(
        self, wide_table, txns, clock
    ):
        store, oid = populated(wide_table, txns, clock)
        assert store.segment(oid).live_units()
        store.add_expression(oid, double_n1())
        assert store.segment(oid).live_units() == []
