"""Tests for aggregation push-down (section V)."""

import numpy as np
import pytest

from repro.db import Deployment, InMemoryService
from repro.imcs import AggregateSpec, Aggregator, Predicate, ScanEngine

from tests.db.conftest import load, simple_table_def, small_config


@pytest.fixture
def populated():
    deployment = Deployment.build(config=small_config())
    deployment.create_table(simple_table_def())
    rowids, __ = load(deployment)  # ids 0..99, n1 = id*1.0, c1 = v{id%5}
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    deployment.catch_up()
    return deployment, rowids


class TestAggregateSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AggregateSpec("median", "x")
        with pytest.raises(ValueError):
            AggregateSpec("sum")  # needs a column
        AggregateSpec("count")  # COUNT(*) is fine


class TestPushdown:
    def test_basic_aggregates_match_naive(self, populated):
        deployment, __ = populated
        result = deployment.standby.aggregate(
            "T",
            [
                AggregateSpec("count"),
                AggregateSpec("sum", "n1"),
                AggregateSpec("avg", "n1"),
                AggregateSpec("min", "n1"),
                AggregateSpec("max", "n1"),
            ],
        )
        assert result.values == [100, 4950.0, 49.5, 0.0, 99.0]
        assert result.pushed_down_rows == 100  # all columnar, no fallback

    def test_predicate_filtered(self, populated):
        deployment, __ = populated
        result = deployment.standby.aggregate(
            "T",
            [AggregateSpec("count"), AggregateSpec("sum", "n1")],
            [Predicate.lt("n1", 10.0)],
        )
        assert result.values == [10, 45.0]

    def test_varchar_min_max(self, populated):
        deployment, __ = populated
        result = deployment.standby.aggregate(
            "T", [AggregateSpec("min", "c1"), AggregateSpec("max", "c1")]
        )
        assert result.values == ["v0", "v4"]

    def test_reconcile_rows_fold_in(self, populated):
        """Rows invalidated after population aggregate via the row store
        but still contribute exactly once."""
        deployment, rowids = populated
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": 1000.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        result = deployment.standby.aggregate(
            "T", [AggregateSpec("count"), AggregateSpec("sum", "n1"),
                  AggregateSpec("max", "n1")],
        )
        assert result.values == [100, 4950.0 + 1000.0, 1000.0]
        assert result.pushed_down_rows == 99  # one row went reconcile-path

    def test_reconcile_rows_fold_column_by_column_in_row_order(
        self, populated
    ):
        """The reconcile tail folds per column as one more partial, like a
        unit: numpy's sum of its present values in slot order, added to the
        units' partials in scan order -- the first unit's valid rows, its
        tail (ids 0..6), the second unit.  The 1e16 swallows the 0.6 before
        it, as a row-at-a-time fold would not; NULLs count for COUNT(*)
        only; min/max see every present value."""
        deployment, rowids = populated
        changed = [0.1, 0.2, 0.3, 1e16, -1e16, None, 0.7]
        txn = deployment.primary.begin()
        for rowid, value in zip(rowids, changed):
            deployment.primary.update(txn, "T", rowid, {"n1": value})
        deployment.primary.commit(txn)
        deployment.catch_up()
        specs = [
            AggregateSpec("count"), AggregateSpec("sum", "n1"),
            AggregateSpec("min", "n1"), AggregateSpec("max", "n1"),
            AggregateSpec("min", "c1"), AggregateSpec("avg", "n1"),
        ]
        result = deployment.standby.aggregate("T", specs)
        assert result.pushed_down_rows == 100 - len(changed)
        tail = float(np.sum([v for v in changed if v is not None]))
        total = float(sum(range(7, 64))) + tail + float(sum(range(64, 100)))
        row_at_a_time = float(sum(range(len(changed), 100)))
        for value in changed:
            if value is not None:
                row_at_a_time += value
        assert total != row_at_a_time  # the order shows
        assert result.values == [100, total, -1e16, 1e16, "v0", total / 99]
        assert deployment.primary.aggregate("T", specs).values == (
            result.values
        )

    def test_empty_match_gives_nulls(self, populated):
        deployment, __ = populated
        result = deployment.standby.aggregate(
            "T",
            [AggregateSpec("count"), AggregateSpec("sum", "n1"),
             AggregateSpec("min", "n1")],
            [Predicate.eq("c1", "absent")],
        )
        assert result.values == [0, None, None]

    def test_null_values_skipped(self, populated):
        deployment, __ = populated
        txn = deployment.primary.begin()
        deployment.primary.insert(txn, "T", (7777, None, "hasnull"))
        deployment.primary.commit(txn)
        deployment.catch_up()
        result = deployment.standby.aggregate(
            "T",
            [AggregateSpec("count"), AggregateSpec("sum", "n1")],
            [Predicate.eq("c1", "hasnull")],
        )
        # COUNT(*) counts the row; SUM skips the NULL
        assert result.values == [1, None]

    def test_sql_layer_uses_pushdown(self, populated):
        deployment, __ = populated
        from repro.db.sql import parse_query

        query = parse_query("SELECT COUNT(*), SUM(n1) FROM T WHERE n1 < 5")
        assert query.run(deployment.standby) == [5, 10.0]

    def test_matches_plain_scan_engine_path(self, populated):
        """Pushed-down answers equal naive fold over a plain scan."""
        deployment, __ = populated
        standby = deployment.standby
        table = standby.catalog.table("T")
        engine = ScanEngine(standby.imcs, standby.txn_table)
        naive = engine.scan(
            table, standby.query_scn.value, [Predicate.ge("n1", 30.0)],
            columns=["n1"],
        )
        expected_sum = sum(r[0] for r in naive.rows)
        pushed = Aggregator(engine).aggregate(
            table, standby.query_scn.value,
            [AggregateSpec("sum", "n1")],
            [Predicate.ge("n1", 30.0)],
        )
        assert pushed.values == [expected_sum]
