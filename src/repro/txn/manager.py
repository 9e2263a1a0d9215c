"""The transaction manager: DML execution + redo generation.

One manager runs per primary instance (RAC redo thread).  All managers in
a cluster share the SCN clock, the transaction table and the set of
IMCS-enabled objects (used for the specialized commit-record flag).

Rollback is modelled the way Oracle really does it: applying undo
*generates more redo* -- each original change gets a compensating UNDO
change vector, followed by an abort control record.  The standby therefore
learns about rollbacks purely from the redo stream.  The primary keeps no
other list of a transaction's changes either: a transaction holds the log
offsets of its data CVs, and rollback reads its rows back from the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import InvalidStateError
from repro.common.ids import InstanceId, ObjectId, RowId, TenantId, TransactionId
from repro.common.scn import SCN, SCNClock
from repro.redo.log import RedoLog
from repro.redo.records import CVOp, txn_table_dba
from repro.rowstore.table import Table
from repro.txn.table import TransactionTable, TxnState


#: Op codes as the log's op column stores them (plain ints).
_TXN_BEGIN = int(CVOp.TXN_BEGIN)
_UNDO = int(CVOp.UNDO)


@dataclass(slots=True)
class Transaction:
    """A client transaction on one primary instance."""

    xid: TransactionId
    tenant: TenantId
    state: TxnState = TxnState.ACTIVE
    #: Log offsets of its data CVs in statement order; empty until its
    #: first change writes the begin CV.
    cv_offsets: list[int] = field(default_factory=list)
    #: The tables it changed, by object id: where rollback applies undo.
    tables: dict[ObjectId, Table] = field(default_factory=dict)

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE


class TransactionManager:
    """Runs transactions for one primary instance."""

    def __init__(
        self,
        instance: InstanceId,
        clock: SCNClock,
        txn_table: TransactionTable,
        redo_log: RedoLog,
        imcs_enabled_objects: set[ObjectId],
        specialized_commit_redo: bool = True,
    ) -> None:
        self.instance = instance
        self.clock = clock
        self.txn_table = txn_table
        self.redo_log = redo_log
        #: Objects enabled for IMCS population on *any* database of the
        #: configuration (primary or standby) -- drives the III-E flag.
        self.imcs_enabled_objects = imcs_enabled_objects
        self.specialized_commit_redo = specialized_commit_redo
        self._txn_dba = txn_table_dba(instance)
        # a manager over a recovered table (failover activation) resumes
        # past every transaction the table already holds for its instance
        self._next_sequence = txn_table.highest_sequence(instance) + 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(self, tenant: TenantId = 0) -> Transaction:
        xid = TransactionId(self.instance, self._next_sequence)
        self._next_sequence += 1
        self.txn_table.begin(xid)
        return Transaction(xid=xid, tenant=tenant)

    def _require_active(self, txn: Transaction) -> None:
        if not txn.is_active:
            raise InvalidStateError(f"{txn.xid} is {txn.state}, not active")

    def _emit_control(
        self, txn: Transaction, scn: SCN, op: CVOp, payload: object = None
    ) -> None:
        """A one-CV record against this instance's transaction table."""
        self.redo_log.append(
            self.instance,
            scn,
            (
                (
                    int(op), self._txn_dba, 0, txn.tenant, txn.xid,
                    -1, None, payload,
                ),
            ),
        )

    def _emit_change(
        self,
        txn: Transaction,
        scn: SCN,
        op: CVOp,
        table: Table,
        object_id: ObjectId,
        rowid: RowId,
        row: Optional[tuple] = None,
        payload: object = None,
    ) -> None:
        """A data CV's record.  A transaction's first change carries the
        begin control CV (the journal's anchor node is created when it is
        mined)."""
        cv = (
            int(op), rowid.dba, object_id, txn.tenant, txn.xid,
            rowid.slot, row, payload,
        )
        if txn.cv_offsets:
            cvs = (cv,)
        else:
            cvs = (
                (
                    _TXN_BEGIN, self._txn_dba, 0, txn.tenant, txn.xid,
                    -1, None, None,
                ),
                cv,
            )
        txn.cv_offsets.append(self.redo_log.append(self.instance, scn, cvs))
        txn.tables[object_id] = table

    def changed_rows(
        self, txn: Transaction
    ) -> list[tuple[ObjectId, int, int]]:
        """``(object_id, dba, slot)`` of each of ``txn``'s changes in
        statement order, read back from its redo."""
        row_address = self.redo_log.row_address
        return [row_address(offset) for offset in txn.cv_offsets]

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert(
        self,
        txn: Transaction,
        table: Table,
        values: tuple,
        partition: Optional[str] = None,
    ) -> RowId:
        self._require_active(txn)
        scn = self.clock.next()
        object_id, rowid = table.insert_row(values, txn.xid, scn, partition)
        self._emit_change(
            txn, scn, CVOp.INSERT, table, object_id, rowid, values
        )
        return rowid

    def update(
        self,
        txn: Transaction,
        table: Table,
        rowid: RowId,
        changes: dict[str, object],
    ) -> None:
        self._require_active(txn)
        scn = self.clock.next()
        object_id, __, new_values = table.update_row(
            rowid, changes, txn.xid, scn, self.txn_table
        )
        self._emit_change(
            txn, scn, CVOp.UPDATE, table, object_id, rowid,
            new_values, tuple(changes),
        )

    def delete(self, txn: Transaction, table: Table, rowid: RowId) -> None:
        self._require_active(txn)
        scn = self.clock.next()
        object_id, old_values = table.delete_row(
            rowid, txn.xid, scn, self.txn_table
        )
        self._emit_change(
            txn, scn, CVOp.DELETE, table, object_id, rowid, old_values
        )

    # ------------------------------------------------------------------
    # end of transaction
    # ------------------------------------------------------------------
    def commit(self, txn: Transaction) -> SCN:
        """Commit; returns the commitSCN.

        Read-only transactions (no redo generated) commit silently, like
        Oracle.  Otherwise a commit record is written whose SCN *is* the
        commitSCN, annotated with the modifies-IMCS flag when specialized
        redo generation is on (section III-E).
        """
        self._require_active(txn)
        commit_scn = self.clock.next()
        txn.state = TxnState.COMMITTED
        self.txn_table.commit(txn.xid, commit_scn)
        if txn.cv_offsets:
            flag: Optional[bool] = None
            if self.specialized_commit_redo:
                flag = not self.imcs_enabled_objects.isdisjoint(txn.tables)
            self._emit_control(txn, commit_scn, CVOp.TXN_COMMIT, flag)
        return commit_scn

    def rollback(self, txn: Transaction) -> None:
        """Abort: apply undo (generating compensating redo) then mark
        the transaction aborted."""
        self._require_active(txn)
        for object_id, dba, slot in reversed(self.changed_rows(txn)):
            scn = self.clock.next()
            txn.tables[object_id].apply_undo(
                object_id, dba, slot, txn.xid, scn
            )
            undo = (
                _UNDO, dba, object_id, txn.tenant, txn.xid, slot, None, None
            )
            self.redo_log.append(self.instance, scn, (undo,))
        txn.state = TxnState.ABORTED
        self.txn_table.abort(txn.xid)
        if txn.cv_offsets:
            self._emit_control(txn, self.clock.next(), CVOp.TXN_ABORT)
