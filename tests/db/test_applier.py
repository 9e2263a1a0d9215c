"""Unit tests for the PhysicalApplier (shared by SIRA and MIRA)."""

import pytest

from repro.adg.apply import ApplyStall
from repro.common import TransactionId
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

from tests.helpers import apply_one
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
        assert block.chain(0).current is None

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
        assert block.chain(1).current is None
        assert block.chain(0).current.values == (0, "a")
        assert block.chain(2).current.values == (2, "a")
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
        assert table.default_partition.segment.row_count_current() == 0


class TestControlOps:
    def test_commit_and_abort_recover_txn_state(self, applier):
        apply, __ = applier
        begin = ChangeVector(CVOp.TXN_BEGIN, txn_table_dba(1), 0, 0, X)
        apply_one(apply, begin, 5)
        assert apply.txn_table.state_of(X) is TxnState.ACTIVE
        commit = ChangeVector(
            CVOp.TXN_COMMIT, txn_table_dba(1), 0, 0, X, CommitPayload(9, True)
        )
        apply_one(apply, commit, 9)
        assert apply.txn_table.commit_scn_of(X) == 9

    def test_prepare(self, applier):
        apply, __ = applier
        apply_one(apply,
            ChangeVector(CVOp.TXN_PREPARE, txn_table_dba(1), 0, 0, X), 5
        )
        assert apply.txn_table.state_of(X) is TxnState.PREPARED

    def test_heartbeat_is_noop(self, applier):
        apply, __ = applier
        apply_one(apply,
            ChangeVector(CVOp.HEARTBEAT, txn_table_dba(1), 0, 0, X), 5
        )


class TestDDLAndStalls:
    def test_unknown_object_stalls(self, applier):
        apply, __ = applier
        with pytest.raises(ApplyStall):
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
        )  # no stall now

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
