"""Unit tests for the PhysicalApplier (shared by SIRA and MIRA)."""

import pytest

from repro.common import ObjectNotFoundError, TransactionId
from repro.db import ColumnDef, TableDef
from repro.db.applier import PhysicalApplier
from repro.db.catalog import Catalog
from repro.redo import (
    CVOp,
    DDLMarkerPayload,
    ddl_marker_dba,
    truncate_dba,
    txn_table_dba,
)
from repro.rowstore import BlockStore
from repro.txn import TransactionTable, TxnState

from tests.helpers import apply_one, current_rows, txn_state
from tests.naive_batch import (
    ChangeVector,
    CommitPayload,
    DeletePayload,
    InsertPayload,
    TruncatePayload,
    UndoPayload,
    UpdatePayload,
)

X = TransactionId(1, 1)


def table_def(name="T"):
    return TableDef(
        name,
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.varchar("c1"),
        ),
        rows_per_block=4,
        indexes=("id",),
    )


@pytest.fixture
def applier():
    catalog = Catalog(BlockStore())
    catalog.create_table(table_def())
    return PhysicalApplier(catalog, TransactionTable()), catalog


def data_cv(op, object_id, dba, payload):
    return ChangeVector(op, dba, object_id, 0, X, payload)


class TestDataOps:
    def test_insert_update_delete_roundtrip(self, applier):
        apply, catalog = applier
        table = catalog.table("T")
        oid = table.default_partition.object_id
        apply_one(apply,
            data_cv(CVOp.INSERT, oid, 50, InsertPayload(0, (1, "a"))), 10
        )
        apply_one(apply,
            data_cv(CVOp.UPDATE, oid, 50,
                    UpdatePayload(0, (1, "b"), ("c1",))), 11
        )
        apply.txn_table.commit(X, 12)
        from repro.common import RowId

        assert table.fetch_by_rowid(RowId(50, 0), 12, apply.txn_table) == (1, "b")
        deleter = TransactionId(1, 2)
        apply_one(apply,
            ChangeVector(CVOp.DELETE, 50, oid, 0, deleter,
                         DeletePayload(0, (1, "b"))), 13,
        )
        # uncommitted delete: snapshots still see the committed image
        assert table.fetch_by_rowid(RowId(50, 0), 12, apply.txn_table) == (1, "b")
        apply.txn_table.commit(deleter, 14)
        assert table.fetch_by_rowid(RowId(50, 0), 14, apply.txn_table) is None

    def test_undo_strips_version(self, applier):
        apply, catalog = applier
        table = catalog.table("T")
        oid = table.default_partition.object_id
        apply_one(apply,
            data_cv(CVOp.INSERT, oid, 50, InsertPayload(0, (1, "a"))), 10
        )
        apply_one(apply, data_cv(CVOp.UNDO, oid, 50, UndoPayload(0)), 11)
        block = table.default_partition.segment._store.get(50)
        assert block.current(0) is None

    def test_undo_strips_the_slot_it_names(self, applier):
        """The UNDO's slot travels in the one slot column (the displaced
        transpose shipped -1 for it and apply read the payload object):
        with two rows written, only the named slot is stripped."""
        apply, catalog = applier
        table = catalog.table("T")
        oid = table.default_partition.object_id
        for slot in (0, 1, 2):
            apply_one(
                apply,
                data_cv(CVOp.INSERT, oid, 50, InsertPayload(slot, (slot, "a"))),
                10 + slot,
            )
        apply_one(apply, data_cv(CVOp.UNDO, oid, 50, UndoPayload(1)), 13)
        block = table.default_partition.segment._store.get(50)
        assert block.current(1) is None
        assert block.current(0) == (0, "a")
        assert block.current(2) == (2, "a")
        assert table.indexes["id"].search(1) is None
        assert table.indexes["id"].search(2) is not None

    def test_truncate(self, applier):
        apply, catalog = applier
        table = catalog.table("T")
        oid = table.default_partition.object_id
        apply_one(apply,
            data_cv(CVOp.INSERT, oid, 50, InsertPayload(0, (1, "a"))), 10
        )
        apply_one(apply,
            data_cv(CVOp.TRUNCATE, oid, truncate_dba(oid),
                    TruncatePayload(oid)), 11
        )
        assert current_rows(table.default_partition.segment) == 0


class TestTruncateRacingItsBlock:
    """``insert; commit; insert; truncate; rollback; insert`` on the
    primary: the rollback's UNDO brings the wiped block 50 back, so the
    last insert lands in its slot 0 again.  The TRUNCATE (its own reserved
    DBA) and block 50's CVs are applied by two workers, in any interleaving
    that keeps each worker's SCN order."""

    COMMITTED, OPEN, LATE = (TransactionId(1, n) for n in (1, 2, 3))

    def block_worker(self, table, oid, late):
        return [
            lambda: table.apply_insert(oid, 50, 0, (1, "a"), self.COMMITTED, 4),
            lambda: table.apply_insert(oid, 50, 1, (2, "b"), self.OPEN, 6),
            lambda: table.apply_undo(oid, 50, 1, self.OPEN, 9),
            lambda: table.apply_insert(oid, 50, 0, late, self.LATE, 10),
        ]

    @pytest.mark.parametrize("late", [(3, "c"), (1, "c")], ids=["new", "reused"])
    @pytest.mark.parametrize("ahead", range(5))
    def test_the_wiped_row_stays_wiped_whoever_runs_ahead(
        self, applier, ahead, late
    ):
        """``ahead`` is how many of block 50's CVs are applied before the
        TRUNCATE at SCN 8: from none of them to all of them.  The late row
        may take the wiped row's key, which the TRUNCATE freed."""
        apply, catalog = applier
        table = catalog.table("T")
        oid = table.default_partition.object_id
        txns = apply.txn_table
        txns.commit(self.COMMITTED, 5)
        txns.abort(self.OPEN)
        txns.commit(self.LATE, 11)
        steps = self.block_worker(table, oid, late)
        for step in steps[:ahead]:
            step()
        table.apply_truncate(oid, 8)
        for step in steps[ahead:]:
            step()
        rows = [values for __, values in table.full_scan(11, txns)]
        assert rows == [late]
        assert table.index_fetch("id", late[0], 11, txns) == late
        for gone in {1, 2} - {late[0]}:  # wiped, rolled back
            assert table.index_fetch("id", gone, 11, txns) is None
        assert table.default_partition.segment.dbas == [50]
        assert current_rows(table.default_partition.segment) == 1

    def test_a_wiped_key_taken_in_a_fresh_block_keeps_its_entry(
        self, applier
    ):
        """Without a rollback the post-truncate insert lands in a fresh
        block, whose worker may also run ahead of the TRUNCATE: the index
        entry for the reused key is the new row's, not the wiped one's."""
        apply, catalog = applier
        table = catalog.table("T")
        oid = table.default_partition.object_id
        txns = apply.txn_table
        txns.commit(self.COMMITTED, 5)
        txns.commit(self.LATE, 11)
        table.apply_insert(oid, 50, 0, (1, "a"), self.COMMITTED, 4)
        table.apply_insert(oid, 51, 0, (1, "c"), self.LATE, 10)
        table.apply_truncate(oid, 8)
        assert [values for __, values in table.full_scan(11, txns)] == [
            (1, "c")
        ]
        assert table.index_fetch("id", 1, 11, txns) == (1, "c")
        assert table.default_partition.segment.dbas == [51]


class TestControlOps:
    def test_commit_and_abort_recover_txn_state(self, applier):
        apply, __ = applier
        begin = ChangeVector(CVOp.TXN_BEGIN, txn_table_dba(1), 0, 0, X)
        apply_one(apply, begin, 5)
        assert txn_state(apply.txn_table, X) is TxnState.ACTIVE
        commit = ChangeVector(
            CVOp.TXN_COMMIT, txn_table_dba(1), 0, 0, X, CommitPayload(9, True)
        )
        apply_one(apply, commit, 9)
        assert apply.txn_table.commit_scn_of(X) == 9

    def test_heartbeat_is_noop(self, applier):
        apply, __ = applier
        apply_one(apply,
            ChangeVector(CVOp.HEARTBEAT, txn_table_dba(1), 0, 0, X), 5
        )


def create_marker(table_def, object_id):
    """A create-table marker for ``table_def`` pinned to one partition."""
    pinned = TableDef(
        table_def.name, table_def.columns, rows_per_block=4,
        partition_object_ids=(("P0", object_id),),
    )
    return ChangeVector(
        CVOp.DDL_MARKER, ddl_marker_dba(object_id), object_id, 0, X,
        DDLMarkerPayload("create_table", (object_id,), table_def.name,
                         {"table_def": pinned}),
    )


class TestDDL:
    """Create-table markers install at distribution; other DDL applies at
    QuerySCN advancement."""

    def test_unknown_object_raises(self, applier):
        """No marker ever named the object: corrupt redo, not a wait."""
        apply, __ = applier
        with pytest.raises(ObjectNotFoundError):
            apply_one(apply,
                data_cv(CVOp.INSERT, 31337, 50, InsertPayload(0, (1, "a"))), 10
            )

    def test_create_table_marker_then_data(self, applier):
        apply, catalog = applier
        new_def = catalog.definition("T").with_object_ids([])  # reuse cols
        new_def = TableDef(
            "U", new_def.columns, rows_per_block=4,
            partition_object_ids=(("P0", 777),),
        )
        marker = ChangeVector(
            CVOp.DDL_MARKER, ddl_marker_dba(777), 777, 0, X,
            DDLMarkerPayload("create_table", (777,), "U",
                             {"table_def": new_def}),
        )
        apply_one(apply, marker, 20)
        assert "U" in catalog
        apply_one(apply,
            data_cv(CVOp.INSERT, 777, 90, InsertPayload(0, (1, "a"))), 21
        )  # the install made the object known

    def test_create_table_marker_idempotent(self, applier):
        apply, catalog = applier
        shipped = catalog.definition("T")
        marker = ChangeVector(
            CVOp.DDL_MARKER, ddl_marker_dba(100), 100, 0, X,
            DDLMarkerPayload("create_table", tuple(
                oid for __, oid in shipped.partition_object_ids
            ), "T", {"table_def": shipped}),
        )
        apply_one(apply, marker, 20)  # T exists: must not raise
        assert "T" in catalog

    def test_recreated_name_survives_the_drop_of_the_old_table(self, applier):
        """drop T; create T: the re-create installs under the name while
        the old table awaits its drop, and the drop (processed later, at
        QuerySCN advancement) takes only the object ids it names."""
        apply, catalog = applier
        old_ids = catalog.table("T").object_ids
        apply_one(apply, create_marker(table_def(), 900), 20)
        assert catalog.table("T").object_ids == [900]
        assert all(catalog.has_object(oid) for oid in old_ids)
        apply.apply_ddl(DDLMarkerPayload("drop_table", tuple(old_ids), "T"))
        assert catalog.table("T").object_ids == [900]
        assert not any(catalog.has_object(oid) for oid in old_ids)
        apply_one(apply,
            data_cv(CVOp.INSERT, 900, 90, InsertPayload(0, (1, "a"))), 21
        )

    def test_drop_column_follows_the_object_ids_not_the_name(self, applier):
        """A column drop processed after a re-create under the same name
        took its name over still lands on the table it was issued on."""
        apply, catalog = applier
        old = catalog.table("T")
        apply_one(apply, create_marker(table_def(), 900), 20)
        apply.apply_ddl(DDLMarkerPayload(
            "drop_column", tuple(old.object_ids), "T", {"column": "c1"}
        ))
        assert old.schema.is_dropped("c1")
        assert not catalog.table("T").schema.is_dropped("c1")
