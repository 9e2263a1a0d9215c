"""Tests for heap tables: DML, reads, partitions, physical apply."""

import itertools
import re

import pytest

from repro.common import ObjectNotFoundError, RowId
from repro.rowstore import BlockStore, Table
from repro.rowstore.table import RowLockConflictError


class TestInsertFetch:
    def test_insert_then_fetch_at_commit(self, table, txns, xid_factory):
        xid = xid_factory()
        __, rowid = table.insert_row((1, 10.0, "a"), xid, scn=5)
        txns.commit(xid, 7)
        assert table.fetch_by_rowid(rowid, 7, txns) == (1, 10.0, "a")
        assert table.fetch_by_rowid(rowid, 6, txns) is None

    def test_insert_validates_schema(self, table, xid_factory):
        with pytest.raises(ValueError):
            table.insert_row((1, "bad", 3), xid_factory(), scn=5)

    def test_rows_spill_to_new_blocks(self, table, txns, xid_factory):
        xid = xid_factory()
        rowids = [
            table.insert_row((i, float(i), "x"), xid, scn=5 + i)[1]
            for i in range(10)
        ]
        txns.commit(xid, 50)
        # rows_per_block=4 => 10 rows span 3 blocks
        assert len({r.dba for r in rowids}) == 3
        assert table.default_partition.segment.n_blocks == 3


class TestUpdateDelete:
    def insert_committed(self, table, txns, xid_factory, values, scn=5):
        xid = xid_factory()
        __, rowid = table.insert_row(values, xid, scn)
        txns.commit(xid, scn + 1)
        return rowid

    def test_update_changes_named_columns(self, table, txns, xid_factory):
        rowid = self.insert_committed(table, txns, xid_factory, (1, 10.0, "a"))
        xid = xid_factory()
        __, old, new = table.update_row(rowid, {"n1": 99.0}, xid, 10, txns)
        assert old == (1, 10.0, "a")
        assert new == (1, 99.0, "a")
        txns.commit(xid, 12)
        assert table.fetch_by_rowid(rowid, 12, txns) == (1, 99.0, "a")
        # pre-update snapshot still sees the old value
        assert table.fetch_by_rowid(rowid, 8, txns) == (1, 10.0, "a")

    @pytest.mark.parametrize(
        "changes, error, text",
        [
            (
                {"n1": "bad"},
                ValueError,
                "value 'bad' invalid for column n1 (number)",
            ),
            (
                {"c1": "ok", "id": None},
                ValueError,
                "value None invalid for column id (number)",
            ),
            ({"c1": 3}, ValueError, "value 3 invalid for column c1 (varchar"),
            ({"n1": True}, ValueError, "value True invalid for column n1"),
            ({"gone": 1.0}, KeyError, "no such column"),
        ],
    )
    def test_update_validates_the_changed_cells(
        self, table, txns, xid_factory, changes, error, text
    ):
        """Only the changed values are checked (the rest were when they
        were written) -- with the full-row check's error, and before
        anything is written."""
        rowid = self.insert_committed(table, txns, xid_factory, (1, 10.0, "a"))
        xid = xid_factory()
        with pytest.raises(error, match=re.escape(text)):
            table.update_row(rowid, changes, xid, 10, txns)
        block = table.default_partition.segment._store.get(rowid.dba)
        assert block.current(rowid.slot) == (1, 10.0, "a")
        # no version written, no row lock
        assert block.xids[block.heads[rowid.slot]] != xid
        table.update_row(rowid, {"n1": None}, xid, 11, txns)  # NULL is fine

    def test_update_of_a_dropped_column_raises(self, table, txns, xid_factory):
        rowid = self.insert_committed(table, txns, xid_factory, (1, 10.0, "a"))
        table.schema.drop_column("n1")
        with pytest.raises(KeyError, match="has been dropped"):
            table.update_row(rowid, {"n1": 2.0}, xid_factory(), 10, txns)
        # a dropped column's stored cell is not re-checked either
        __, __, new = table.update_row(
            rowid, {"c1": "b"}, xid_factory(), 10, txns
        )
        assert new == (1, 10.0, "b")

    def test_delete_hides_row_after_commit(self, table, txns, xid_factory):
        rowid = self.insert_committed(table, txns, xid_factory, (1, 10.0, "a"))
        xid = xid_factory()
        table.delete_row(rowid, xid, 10, txns)
        txns.commit(xid, 12)
        assert table.fetch_by_rowid(rowid, 12, txns) is None
        assert table.fetch_by_rowid(rowid, 8, txns) == (1, 10.0, "a")

    def test_row_lock_conflict(self, table, txns, xid_factory):
        rowid = self.insert_committed(table, txns, xid_factory, (1, 10.0, "a"))
        writer = xid_factory()
        table.update_row(rowid, {"n1": 1.0}, writer, 10, txns)
        other = xid_factory()
        with pytest.raises(RowLockConflictError):
            table.update_row(rowid, {"n1": 2.0}, other, 11, txns)
        with pytest.raises(RowLockConflictError):
            table.delete_row(rowid, other, 11, txns)

    def test_own_transaction_can_update_twice(self, table, txns, xid_factory):
        rowid = self.insert_committed(table, txns, xid_factory, (1, 10.0, "a"))
        xid = xid_factory()
        table.update_row(rowid, {"n1": 1.0}, xid, 10, txns)
        table.update_row(rowid, {"n1": 2.0}, xid, 11, txns)
        txns.commit(xid, 12)
        assert table.fetch_by_rowid(rowid, 12, txns) == (1, 2.0, "a")

    def test_update_deleted_row_raises(self, table, txns, xid_factory):
        rowid = self.insert_committed(table, txns, xid_factory, (1, 10.0, "a"))
        xid = xid_factory()
        table.delete_row(rowid, xid, 10, txns)
        txns.commit(xid, 11)
        with pytest.raises(ObjectNotFoundError):
            table.update_row(rowid, {"n1": 1.0}, xid_factory(), 12, txns)


class TestFullScan:
    def test_scan_sees_only_committed_as_of_snapshot(self, table, txns, xid_factory):
        x1 = xid_factory()
        table.insert_row((1, 1.0, "a"), x1, 5)
        txns.commit(x1, 6)
        x2 = xid_factory()
        table.insert_row((2, 2.0, "b"), x2, 7)  # never committed
        x3 = xid_factory()
        table.insert_row((3, 3.0, "c"), x3, 8)
        txns.commit(x3, 9)

        rows_at_6 = [v for __, v in table.full_scan(6, txns)]
        rows_at_9 = [v for __, v in table.full_scan(9, txns)]
        assert rows_at_6 == [(1, 1.0, "a")]
        assert sorted(rows_at_9) == [(1, 1.0, "a"), (3, 3.0, "c")]


class TestIndex:
    def test_index_fetch(self, table, txns, xid_factory):
        table.create_index("id")
        xid = xid_factory()
        for i in range(10):
            table.insert_row((i, float(i), f"s{i}"), xid, 5 + i)
        txns.commit(xid, 50)
        assert table.index_fetch("id", 7, 50, txns) == (7, 7.0, "s7")
        assert table.index_fetch("id", 99, 50, txns) is None

    def test_create_index_backfills_existing_rows(self, table, txns, xid_factory):
        xid = xid_factory()
        table.insert_row((42, 1.0, "x"), xid, 5)
        txns.commit(xid, 6)
        table.create_index("id")
        assert table.index_fetch("id", 42, 6, txns) == (42, 1.0, "x")

    def test_index_maintained_on_update_of_key(self, table, txns, xid_factory):
        table.create_index("id")
        xid = xid_factory()
        __, rowid = table.insert_row((1, 1.0, "x"), xid, 5)
        txns.commit(xid, 6)
        x2 = xid_factory()
        table.update_row(rowid, {"id": 2}, x2, 7, txns)
        txns.commit(x2, 8)
        assert table.index_fetch("id", 2, 8, txns) == (2, 1.0, "x")
        assert table.index_fetch("id", 1, 8, txns) is None

    def test_index_maintained_on_delete(self, table, txns, xid_factory):
        table.create_index("id")
        xid = xid_factory()
        __, rowid = table.insert_row((1, 1.0, "x"), xid, 5)
        txns.commit(xid, 6)
        x2 = xid_factory()
        table.delete_row(rowid, x2, 7, txns)
        txns.commit(x2, 8)
        assert table.indexes["id"].search(1) is None

    def test_missing_index_raises(self, table, txns):
        with pytest.raises(ObjectNotFoundError):
            table.index_fetch("n1", 1, 10, txns)

    def test_dropping_an_indexed_column_leaves_dml_working(
        self, table, txns, xid_factory
    ):
        """The key position is resolved when the index is created: a
        dictionary-only drop of its column no longer fails every later
        statement (an insert used to, after storing its row)."""
        table.create_index("id")
        table.create_index("n1")
        table.schema.drop_column("n1")
        xid = xid_factory()
        __, rowid = table.insert_row((1, 1.0, "x"), xid, 5)
        table.update_row(rowid, {"id": 2}, xid, 6, txns)
        txns.commit(xid, 7)
        assert table.index_fetch("id", 2, 7, txns) == (2, 1.0, "x")
        assert table.indexes["id"].search(1) is None


class TestPartitions:
    def make_partitioned(self, simple_schema):
        store = BlockStore()
        oid = itertools.count(100)
        return Table(
            "SALES",
            simple_schema,
            store,
            object_id_allocator=lambda: next(oid),
            rows_per_block=4,
            partition_names=["JAN", "FEB"],
            partition_fn=lambda row: "JAN" if row[0] < 100 else "FEB",
        )

    def test_partition_routing(self, simple_schema, txns, xid_factory):
        table = self.make_partitioned(simple_schema)
        xid = xid_factory()
        table.insert_row((1, 1.0, "a"), xid, 5)
        table.insert_row((200, 2.0, "b"), xid, 6)
        txns.commit(xid, 7)
        jan = [v for __, v in table.full_scan(7, txns, partitions=["JAN"])]
        feb = [v for __, v in table.full_scan(7, txns, partitions=["FEB"])]
        assert jan == [(1, 1.0, "a")]
        assert feb == [(200, 2.0, "b")]

    def test_explicit_partition_overrides_fn(self, simple_schema, txns, xid_factory):
        table = self.make_partitioned(simple_schema)
        xid = xid_factory()
        table.insert_row((1, 1.0, "a"), xid, 5, partition="FEB")
        txns.commit(xid, 7)
        assert [v for __, v in table.full_scan(7, txns, partitions=["FEB"])]

    def test_partitions_have_distinct_object_ids(self, simple_schema):
        table = self.make_partitioned(simple_schema)
        oids = table.object_ids
        assert len(oids) == len(set(oids)) == 2

    def test_truncate_partition(self, simple_schema, txns, xid_factory):
        table = self.make_partitioned(simple_schema)
        table.create_index("id")
        xid = xid_factory()
        table.insert_row((1, 1.0, "a"), xid, 5)
        table.insert_row((200, 2.0, "b"), xid, 6)
        txns.commit(xid, 7)
        table.truncate_partition("JAN", scn=10)
        assert [v for __, v in table.full_scan(10, txns, partitions=["JAN"])] == []
        assert table.indexes["id"].search(1) is None
        assert table.indexes["id"].search(200) is not None


class TestPhysicalApply:
    """The standby replays the primary's physical layout exactly."""

    def test_apply_insert_reproduces_row(self, simple_schema, txns, xid_factory):
        store = BlockStore()
        oid = itertools.count(100)
        standby = Table(
            "T", simple_schema, store,
            object_id_allocator=lambda: next(oid), rows_per_block=4,
        )
        object_id = standby.default_partition.object_id
        xid = xid_factory()
        standby.apply_insert(object_id, dba=77, slot=2, values=(1, 1.0, "a"),
                             xid=xid, scn=5)
        txns.commit(xid, 6)
        assert standby.fetch_by_rowid(RowId(77, 2), 6, txns) == (1, 1.0, "a")

    def test_apply_roundtrip_matches_primary(self, simple_schema, txns, xid_factory):
        """Run DML on a primary table, replay the physical ops on a standby
        table, and compare full scans at the same snapshot."""
        store_p = BlockStore()
        oid_p = itertools.count(100)
        primary = Table("T", simple_schema, store_p,
                        object_id_allocator=lambda: next(oid_p), rows_per_block=4)
        store_s = BlockStore()
        oid_s = itertools.count(100)
        standby = Table("T", simple_schema, store_s,
                        object_id_allocator=lambda: next(oid_s), rows_per_block=4)

        xid = xid_factory()
        ops = []
        for i in range(6):
            obj, rowid = primary.insert_row((i, float(i), "v"), xid, 5 + i)
            ops.append(("ins", obj, rowid, (i, float(i), "v"), 5 + i))
        obj, old, new = primary.update_row(ops[2][2], {"c1": "upd"}, xid, 20, txns)
        ops.append(("upd", obj, ops[2][2], new, 20))
        obj, old = primary.delete_row(ops[4][2], xid, 21, txns)
        ops.append(("del", obj, ops[4][2], old, 21))
        txns.commit(xid, 30)

        for op in ops:
            kind, obj, rowid, values, scn = op
            if kind == "ins":
                standby.apply_insert(obj, rowid.dba, rowid.slot, values, xid, scn)
            elif kind == "upd":
                standby.apply_update(obj, rowid.dba, rowid.slot, values,
                                     ("c1",), xid, scn)
            else:
                standby.apply_delete(obj, rowid.dba, rowid.slot, values, xid, scn)

        scan_p = sorted(v for __, v in primary.full_scan(30, txns))
        scan_s = sorted(v for __, v in standby.full_scan(30, txns))
        assert scan_p == scan_s
        assert len(scan_p) == 5
