"""Physical application of change vectors to a standby's structures.

Extracted from :class:`~repro.db.standby.StandbyDatabase` so that both
single-instance redo apply (SIRA) and multi-instance redo apply (MIRA,
:mod:`repro.rac.mira`) share one implementation: MIRA's apply instances
mount the same database (shared catalog, block store and recovered
transaction table) and each applies its owned subset of CVs through an
instance of this class.
"""

from __future__ import annotations

from repro.adg.apply import ApplyStall
from repro.common.errors import ObjectNotFoundError
from repro.common.scn import SCN
from repro.redo.batch import CVBatch
from repro.redo.records import CVOp
from repro.txn.table import TransactionTable
from repro.db.catalog import Catalog

(
    _INSERT, _UPDATE, _DELETE, _UNDO, _TXN_BEGIN, _TXN_PREPARE,
    _TXN_COMMIT, _TXN_ABORT, _TRUNCATE, _DDL_MARKER, _HEARTBEAT,
) = CVOp  # definition order


class PhysicalApplier:
    """Replays change vectors against a catalog + transaction table."""

    def __init__(self, catalog: Catalog, txn_table: TransactionTable) -> None:
        self.catalog = catalog
        self.txn_table = txn_table

    def apply_cv(self, batch: CVBatch, i: int, scn: SCN) -> None:
        """Apply the change vector at position ``i`` of ``batch``."""
        op = batch.ops.item(i)
        if op == _HEARTBEAT:
            return
        if op == _TXN_BEGIN:
            self.txn_table.ensure_known(batch.xid_objects[i])
            return
        if op == _TXN_PREPARE:
            xid = batch.xid_objects[i]
            self.txn_table.ensure_known(xid)
            self.txn_table.prepare(xid)
            return
        if op == _TXN_COMMIT:
            # a commit record's SCN is the commitSCN
            self.txn_table.commit(batch.xid_objects[i], scn)
            return
        if op == _TXN_ABORT:
            self.txn_table.abort(batch.xid_objects[i])
            return
        if op == _DDL_MARKER:
            payload = batch.payloads[i]
            if payload.kind == "create_table":
                # Dictionary changes must exist before the table's data CVs
                # (queued on other workers) can apply; everything else about
                # the marker is processed at QuerySCN advancement.
                if payload.table_name not in self.catalog:
                    self.catalog.create_table(payload.detail["table_def"])
            return
        # data CVs
        object_id = batch.object_ids.item(i)
        try:
            table = self.catalog.table_for_object(object_id)
        except ObjectNotFoundError:
            # The create-table marker is still queued on another worker.
            raise ApplyStall(f"object {object_id} not in dictionary yet")
        if op == _TRUNCATE:
            table.apply_truncate(object_id, scn)
            return
        dba = batch.dbas.item(i)
        slot = batch.slots.item(i)
        xid = batch.xid_objects[i]
        if op == _INSERT:
            table.apply_insert(object_id, dba, slot, batch.rows[i], xid, scn)
        elif op == _UPDATE:
            table.apply_update(
                object_id, dba, slot, batch.rows[i], batch.payloads[i],
                xid, scn,
            )
        elif op == _DELETE:
            table.apply_delete(object_id, dba, slot, batch.rows[i], xid, scn)
        elif op == _UNDO:
            table.apply_undo(object_id, dba, slot, xid, scn)
        else:
            raise ValueError(f"unhandled CV op {CVOp(op)!r}")
