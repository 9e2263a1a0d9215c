"""Tests for the transaction manager: DML, redo shape, commit, rollback."""

import gc
import itertools

import pytest

from repro.common import InvalidStateError, SCNClock
from repro.redo import CVOp, RedoLog, txn_table_dba
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table
from repro.txn import TransactionManager, TransactionTable, TxnState

from tests.helpers import log_records, txn_state


@pytest.fixture
def env():
    clock = SCNClock()
    txn_table = TransactionTable()
    log = RedoLog(thread=1)
    imcs_enabled: set[int] = set()
    manager = TransactionManager(
        instance=1,
        clock=clock,
        txn_table=txn_table,
        redo_log=log,
        imcs_enabled_objects=imcs_enabled,
    )
    schema = Schema(
        [
            Column("id", ColumnType.NUMBER, nullable=False),
            Column("n1", ColumnType.NUMBER),
            Column("c1", ColumnType.VARCHAR2),
        ]
    )
    oid = itertools.count(100)
    table = Table(
        "T", schema, BlockStore(),
        object_id_allocator=lambda: next(oid), rows_per_block=4,
    )
    return manager, table, log, txn_table, imcs_enabled


#: The data ops as the log's op column stores them.
DATA_OPS = {int(CVOp.INSERT), int(CVOp.UPDATE), int(CVOp.DELETE)}


def all_cvs(log):
    return [cv for rec in log_records(log) for cv in rec.cvs]


class TestDMLRedo:
    def test_first_dml_emits_begin_cv(self, env):
        manager, table, log, *__ = env
        txn = manager.begin()
        manager.insert(txn, table, (1, 1.0, "a"))
        ops = [cv.op for cv in all_cvs(log)]
        assert ops == [CVOp.TXN_BEGIN, CVOp.INSERT]

    def test_begin_cv_emitted_once(self, env):
        manager, table, log, *__ = env
        txn = manager.begin()
        manager.insert(txn, table, (1, 1.0, "a"))
        manager.insert(txn, table, (2, 2.0, "b"))
        ops = [cv.op for cv in all_cvs(log)]
        assert ops.count(CVOp.TXN_BEGIN) == 1

    def test_begin_cv_targets_txn_table_block(self, env):
        manager, table, log, *__ = env
        txn = manager.begin()
        manager.insert(txn, table, (1, 1.0, "a"))
        begin_cv = all_cvs(log)[0]
        assert begin_cv.dba == txn_table_dba(1)

    def test_update_cv_carries_new_values_and_changed_columns(self, env):
        manager, table, log, txn_table, __ = env
        txn = manager.begin()
        rowid = manager.insert(txn, table, (1, 1.0, "a"))
        manager.update(txn, table, rowid, {"n1": 9.0})
        cv = all_cvs(log)[-1]
        assert cv.op is CVOp.UPDATE
        assert cv.payload.new_values == (1, 9.0, "a")
        assert cv.payload.changed_columns == ("n1",)

    def test_scns_strictly_increase_across_records(self, env):
        manager, table, log, *__ = env
        txn = manager.begin()
        for i in range(5):
            manager.insert(txn, table, (i, float(i), "x"))
        scns = [rec.scn for rec in log_records(log)]
        assert scns == sorted(set(scns))


class TestCommit:
    def test_commit_record_scn_is_commit_scn(self, env):
        manager, table, log, txn_table, __ = env
        txn = manager.begin()
        manager.insert(txn, table, (1, 1.0, "a"))
        commit_scn = manager.commit(txn)
        last = list(log_records(log))[-1]
        assert last.scn == commit_scn
        assert last.cvs[0].op is CVOp.TXN_COMMIT
        assert last.cvs[0].payload.commit_scn == commit_scn
        assert txn_table.commit_scn_of(txn.xid) == commit_scn

    def test_commit_flag_false_when_no_imcs_object_touched(self, env):
        manager, table, log, *__ = env
        txn = manager.begin()
        manager.insert(txn, table, (1, 1.0, "a"))
        manager.commit(txn)
        commit_cv = all_cvs(log)[-1]
        assert commit_cv.payload.modifies_imcs is False

    def test_commit_flag_true_when_imcs_object_touched(self, env):
        manager, table, log, __, imcs_enabled = env
        imcs_enabled.add(table.default_partition.object_id)
        txn = manager.begin()
        manager.insert(txn, table, (1, 1.0, "a"))
        manager.commit(txn)
        commit_cv = all_cvs(log)[-1]
        assert commit_cv.payload.modifies_imcs is True

    def test_commit_flag_none_without_specialized_redo(self, env):
        manager, table, log, *__ = env
        manager.specialized_commit_redo = False
        txn = manager.begin()
        manager.insert(txn, table, (1, 1.0, "a"))
        manager.commit(txn)
        commit_cv = all_cvs(log)[-1]
        assert commit_cv.payload.modifies_imcs is None

    def test_readonly_commit_emits_no_redo(self, env):
        manager, __, log, txn_table, ___ = env
        txn = manager.begin()
        manager.commit(txn)
        assert len(log) == 0
        assert txn_table.commit_scn_of(txn.xid) is not None

    def test_commit_flag_reads_every_table_the_transaction_changed(self, env):
        """The III-E flag is set when *any* changed object is IMCS-enabled,
        not only the first one the transaction wrote."""
        manager, table, log, __, imcs_enabled = env
        other = Table(
            "U", table.schema, BlockStore(),
            object_id_allocator=lambda: 200, rows_per_block=4,
        )
        imcs_enabled.add(other.default_partition.object_id)
        txn = manager.begin()
        manager.insert(txn, table, (1, 1.0, "a"))
        manager.insert(txn, other, (2, 2.0, "b"))
        manager.commit(txn)
        assert all_cvs(log)[-1].payload.modifies_imcs is True

    def test_dml_after_commit_raises(self, env):
        manager, table, *__ = env
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(InvalidStateError):
            manager.insert(txn, table, (1, 1.0, "a"))


class TestRollback:
    def test_rollback_restores_row_values(self, env):
        manager, table, log, txn_table, __ = env
        setup = manager.begin()
        rowid = manager.insert(setup, table, (1, 1.0, "a"))
        scn0 = manager.commit(setup)

        txn = manager.begin()
        manager.update(txn, table, rowid, {"n1": 99.0})
        manager.rollback(txn)
        assert table.fetch_by_rowid(rowid, manager.clock.current, txn_table) \
            == (1, 1.0, "a")
        assert scn0 is not None

    def test_rollback_of_insert_removes_row_and_index_entry(self, env):
        manager, table, log, txn_table, __ = env
        table.create_index("id")
        txn = manager.begin()
        manager.insert(txn, table, (7, 1.0, "a"))
        manager.rollback(txn)
        assert table.indexes["id"].search(7) is None
        rows = list(table.full_scan(manager.clock.current, txn_table))
        assert rows == []

    def test_rollback_of_delete_restores_index_entry(self, env):
        manager, table, __, txn_table, ___ = env
        table.create_index("id")
        setup = manager.begin()
        rowid = manager.insert(setup, table, (7, 1.0, "a"))
        manager.commit(setup)
        txn = manager.begin()
        manager.delete(txn, table, rowid)
        manager.rollback(txn)
        assert table.indexes["id"].search(7) == rowid

    def test_rollback_emits_undo_then_abort(self, env):
        manager, table, log, *__ = env
        txn = manager.begin()
        manager.insert(txn, table, (1, 1.0, "a"))
        manager.insert(txn, table, (2, 2.0, "b"))
        manager.rollback(txn)
        ops = [cv.op for cv in all_cvs(log)]
        assert ops == [
            CVOp.TXN_BEGIN, CVOp.INSERT, CVOp.INSERT,
            CVOp.UNDO, CVOp.UNDO, CVOp.TXN_ABORT,
        ]

    def test_rollback_across_two_tables_undoes_in_reverse_statement_order(
        self, env
    ):
        """Rollback reads its rows back from the transaction's redo and
        undoes them last statement first, each in the table that owns the
        object: two tables whose block stores hand out the same DBAs."""
        manager, table, log, txn_table, __ = env
        other = Table(
            "U", table.schema, BlockStore(),
            object_id_allocator=lambda: 200, rows_per_block=4,
        )
        setup = manager.begin()
        a = manager.insert(setup, table, (1, 1.0, "a"))
        b = manager.insert(setup, other, (2, 2.0, "b"))
        manager.commit(setup)
        assert a.dba == b.dba  # only the object id tells the rows apart
        lo = len(log)
        txn = manager.begin()
        manager.update(txn, table, a, {"n1": 10.0})
        manager.insert(txn, other, (3, 3.0, "c"))
        manager.update(txn, other, b, {"n1": 20.0})
        manager.delete(txn, table, a)
        manager.rollback(txn)

        batch = log.batch(lo, len(log))
        rows = list(zip(
            batch.ops, batch.object_ids, batch.dbas, batch.slots
        ))
        data = [row[1:] for row in rows if row[0] in DATA_OPS]
        undo = [row[1:] for row in rows if row[0] == int(CVOp.UNDO)]
        assert len(data) == 4 and undo == data[::-1]
        scn = manager.clock.current
        assert [v for __, v in table.full_scan(scn, txn_table)] == [
            (1, 1.0, "a")
        ]
        assert [v for __, v in other.full_scan(scn, txn_table)] == [
            (2, 2.0, "b")
        ]

    def test_rollback_of_empty_txn_emits_nothing(self, env):
        manager, __, log, txn_table, ___ = env
        txn = manager.begin()
        manager.rollback(txn)
        assert len(log) == 0
        assert txn_state(txn_table, txn.xid) in (TxnState.COMMITTED, TxnState.ABORTED)


def tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


class TestRedoFootprint:
    """Redo is columns and so are row versions: a statement grows the
    GC-tracked heap by nothing of the log's and nothing of the row
    store's, on the primary that runs it and on a standby that applies
    it.  (As objects it was a ChangeVector, a payload, a RedoRecord and
    its ``cvs`` tuple per statement, and a RowVersion per change on each
    side: most of the firehose's tracked heap, all of it walked by every
    full collection.)"""

    N = 1_000
    #: slack for lazily grown containers; one object per statement is N
    BOUND = 20

    def primary(self):
        from repro.db import ColumnDef, PrimaryDatabase, TableDef

        primary = PrimaryDatabase()
        primary.create_table(
            TableDef(
                "T",
                (ColumnDef.number("id", nullable=False), ColumnDef.number("n1")),
                rows_per_block=8,
            )
        )
        txn = primary.begin()
        rowids = [primary.insert(txn, "T", (i, 0.0)) for i in range(50)]
        primary.commit(txn)

        def statements(txn, n):
            for i in range(n):
                primary.update(txn, "T", rowids[i % 50], {"n1": float(i)})

        def run(n):
            txn = primary.begin()
            statements(txn, n)
            primary.commit(txn)

        run(100)  # warm every lazily built structure
        return primary, run, statements

    def test_a_statement_leaves_no_redo_object_behind(self):
        primary, run, __ = self.primary()
        before = tracked()
        run(self.N)
        grown = tracked() - before
        assert len(primary.redo_logs[0]) >= self.N + 100
        assert grown <= self.BOUND, f"{grown} tracked for {self.N} updates"

    def test_an_open_transaction_keeps_no_object_per_statement(self):
        """A transaction's change list is its redo: what it keeps per
        statement is a log offset (an int) and its table, already in its
        dict, so its statements grow the tracked heap by nothing."""
        primary, __, statements = self.primary()
        txn = primary.begin()
        statements(txn, 1)  # the transaction's own list and dict
        before = tracked()
        statements(txn, self.N)
        grown = tracked() - before
        assert len(txn.cv_offsets) == self.N + 1
        primary.commit(txn)
        assert grown <= self.BOUND, f"{grown} tracked for {self.N} open"

    def test_applying_a_statement_leaves_no_object_behind(self):
        from repro.db.applier import PhysicalApplier
        from repro.db.catalog import Catalog

        primary, run, __ = self.primary()
        log = primary.redo_logs[0]
        standby = PhysicalApplier(Catalog(BlockStore()), TransactionTable())

        def apply(lo):
            batch = log.batch(lo, len(log))
            standby.install_dictionary(batch)
            for i in range(batch.n_cvs):
                standby.apply_cv(batch, i, batch.scns[i])
            return len(log)

        applied = apply(0)
        run(self.N)
        before = tracked()
        apply(applied)
        grown = tracked() - before
        scn = primary.clock.current
        assert sorted(
            values for __, values in standby.catalog.table("T").full_scan(
                scn, standby.txn_table
            )
        ) == sorted(
            values for __, values in primary.catalog.table("T").full_scan(
                scn, primary.txn_table
            )
        )
        assert grown <= self.BOUND, f"{grown} tracked for {self.N} applied"
