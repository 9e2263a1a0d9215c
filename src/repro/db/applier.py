"""Physical application of change vectors to a standby's structures.

Single-instance redo apply (SIRA, :class:`~repro.db.standby.StandbyDatabase`)
and multi-instance redo apply (MIRA, :mod:`repro.rac.mira`) share this one
implementation: MIRA's apply instances mount the same database (shared
catalog, block store and recovered transaction table) and each applies its
owned subset of CVs through it.

The dictionary changes at two points.  A create-table marker installs its
table when the apply distributor routes the marker's batch
(:meth:`PhysicalApplier.install_dictionary`), so every later data CV finds
its object whichever worker applies it.  Every other dictionary DDL is
processed at QuerySCN advancement (:meth:`PhysicalApplier.apply_ddl`).
"""

from __future__ import annotations

from repro.common.scn import SCN
from repro.redo.batch import CVBatch
from repro.redo.records import CVOp, DDLMarkerPayload
from repro.txn.table import TransactionTable
from repro.db.catalog import Catalog

(
    _INSERT, _UPDATE, _DELETE, _UNDO, _TXN_BEGIN, _TXN_PREPARE,
    _TXN_COMMIT, _TXN_ABORT, _TRUNCATE, _DDL_MARKER, _HEARTBEAT,
) = CVOp  # definition order
_DDL_MARKER_BYTE = bytes([_DDL_MARKER])


class PhysicalApplier:
    """Replays change vectors against a catalog + transaction table."""

    def __init__(self, catalog: Catalog, txn_table: TransactionTable) -> None:
        self.catalog = catalog
        self.txn_table = txn_table
        #: Table name -> SCN of the create-table marker that installed it.
        self.created_at: dict[str, SCN] = {}

    def install_dictionary(self, batch: CVBatch) -> None:
        """Create the tables of the batch's create-table markers that the
        dictionary does not hold yet.

        Keyed on object ids, not the name: a table dropped and re-created
        under the same name still holds the name until its drop is
        processed at QuerySCN advancement, and the new table takes the
        name over here."""
        # ops are int8, one byte per CV: a byte search is the cheap way
        # past the common batch, which carries no marker at all
        ops = batch.ops.tobytes()
        i = ops.find(_DDL_MARKER_BYTE)
        while i >= 0:
            payload = batch.payloads[i]
            if payload.kind == "create_table" and not any(
                map(self.catalog.has_object, payload.object_ids)
            ):
                self.catalog.install(payload.detail["table_def"])
                self.created_at[payload.table_name] = batch.scns.item(i)
            i = ops.find(_DDL_MARKER_BYTE, i + 1)

    def apply_ddl(self, payload: DDLMarkerPayload) -> None:
        """Dictionary DDL at QuerySCN advancement (the flush component's
        ``ddl_applier``).  'truncate' needs nothing beyond the IMCU drop
        the flush already performed; 'create_table' was installed when
        its batch was distributed."""
        if payload.kind == "drop_column":
            table = self.catalog.table_for_object(payload.object_ids[0])
            column = payload.detail["column"]
            if not table.schema.is_dropped(column):
                table.schema.drop_column(column)
        elif payload.kind == "drop_table":
            self.catalog.drop_objects(payload.object_ids)

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
            return
        # data CVs: an object the dictionary never saw is corrupt redo
        object_id = batch.object_ids.item(i)
        table = self.catalog.table_for_object(object_id)
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
