"""Edge-case tests for the scan engine and its reconciliation paths."""

from repro.common import TransactionId
from repro.common.config import IMCSConfig
from repro.imcs import (
    InMemoryColumnStore,
    PopulationEngine,
    Predicate,
    ScanEngine,
)

from tests.imcs.conftest import load_rows


def populate_all(store, txns, clock, config=None):
    engine = PopulationEngine(
        store, txns, lambda owner: clock.current,
        config or IMCSConfig(imcu_target_rows=16),
    )
    engine.schedule_all()
    while engine.run_one_task(object()) is not None:
        pass
    return engine


class TestEmptyAndDegenerate:
    def test_scan_empty_table(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        scan = ScanEngine(store, txns)
        result = scan.scan(wide_table, clock.current)
        assert result.rows == []

    def test_scan_after_all_rows_deleted(self, wide_table, txns, clock):
        __, rowids = load_rows(wide_table, txns, clock, 16)
        store = InMemoryColumnStore()
        store.enable(wide_table)
        populate_all(store, txns, clock)
        deleter = TransactionId(1, 444)
        for rowid in rowids:
            wide_table.delete_row(rowid, deleter, clock.next(), txns)
        txns.commit(deleter, clock.next())
        oid = wide_table.default_partition.object_id
        for rowid in rowids:
            store.invalidate(oid, rowid.dba, (rowid.slot,), clock.current)
        scan = ScanEngine(store, txns)
        result = scan.scan(wide_table, clock.current)
        assert result.rows == []
        assert result.stats.fallback_rows == 16  # all reconciled as gone

    def test_empty_predicate_list_returns_everything(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 12)
        store = InMemoryColumnStore()
        store.enable(wide_table)
        populate_all(store, txns, clock)
        scan = ScanEngine(store, txns)
        assert len(scan.scan(wide_table, clock.current, []).rows) == 12

    def test_contradictory_predicates(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 12)
        store = InMemoryColumnStore()
        store.enable(wide_table)
        populate_all(store, txns, clock)
        scan = ScanEngine(store, txns)
        result = scan.scan(
            wide_table, clock.current,
            [Predicate.lt("n1", 10.0), Predicate.gt("n1", 50.0)],
        )
        assert result.rows == []


class TestNullHandling:
    def insert_with_nulls(self, wide_table, txns, clock):
        xid = TransactionId(1, 700)
        wide_table.insert_row((1, None, "a"), xid, clock.next())
        wide_table.insert_row((2, 5.0, None), xid, clock.next())
        wide_table.insert_row((3, None, None), xid, clock.next())
        txns.commit(xid, clock.next())

    def test_is_null_through_imcs(self, wide_table, txns, clock):
        self.insert_with_nulls(wide_table, txns, clock)
        store = InMemoryColumnStore()
        store.enable(wide_table)
        populate_all(store, txns, clock)
        scan = ScanEngine(store, txns)
        nulls = scan.scan(wide_table, clock.current, [Predicate.is_null("n1")])
        assert sorted(r[0] for r in nulls.rows) == [1, 3]
        not_nulls = scan.scan(
            wide_table, clock.current, [Predicate.is_not_null("c1")]
        )
        assert sorted(r[0] for r in not_nulls.rows) == [1]

    def test_comparison_never_matches_null(self, wide_table, txns, clock):
        self.insert_with_nulls(wide_table, txns, clock)
        store = InMemoryColumnStore()
        store.enable(wide_table)
        populate_all(store, txns, clock)
        scan = ScanEngine(store, txns)
        result = scan.scan(
            wide_table, clock.current, [Predicate.ne("n1", 12345.0)]
        )
        assert sorted(r[0] for r in result.rows) == [2]


class TestRepopulationSwap:
    def test_scan_during_heavy_repopulation_is_exact(self, wide_table, txns, clock):
        """Interleave invalidation, repopulation and scans; each scan must
        equal a row-store CR at the same snapshot."""
        __, rowids = load_rows(wide_table, txns, clock, 64)
        store = InMemoryColumnStore()
        store.enable(wide_table)
        config = IMCSConfig(
            imcu_target_rows=16,
            repopulate_invalid_fraction=0.01,
            repopulate_min_interval=0.0,
        )
        engine = populate_all(store, txns, clock, config)
        scan = ScanEngine(store, txns)
        oid = wide_table.default_partition.object_id
        for round_number in range(6):
            writer = TransactionId(1, 800 + round_number)
            for rowid in rowids[round_number::7]:
                wide_table.update_row(
                    rowid, {"n1": float(-round_number)}, writer,
                    clock.next(), txns,
                )
            txns.commit(writer, clock.next())
            for rowid in rowids[round_number::7]:
                store.invalidate(oid, rowid.dba, (rowid.slot,), clock.current)
            engine.check_repopulation(now=float(round_number))
            # drain half the repop tasks to leave mixed-generation units
            engine.run_one_task(object())

            snapshot = clock.current
            got = sorted(scan.scan(wide_table, snapshot).rows)
            expected = sorted(
                values
                for __, values in wide_table.full_scan(snapshot, txns)
            )
            assert got == expected, f"diverged in round {round_number}"


class TestDroppedColumnScan:
    def test_scan_projects_live_columns_after_drop(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 8)
        store = InMemoryColumnStore()
        store.enable(wide_table)
        populate_all(store, txns, clock)
        wide_table.schema.drop_column("n1")
        oid = wide_table.default_partition.object_id
        for smu in store.segment(oid).live_units():
            smu.invalidate_column("n1", clock.current)
        scan = ScanEngine(store, txns)
        result = scan.scan(wide_table, clock.current)
        assert all(len(row) == 2 for row in result.rows)
        # units lacking the projected columns are unusable until repop,
        # but results stay correct via the row store
        assert len(result.rows) == 8
