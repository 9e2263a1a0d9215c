"""Redo as objects: the representation the columnar log displaced.

Until PR 24 the primary built its redo as a :class:`RedoRecord` of
:class:`ChangeVector` dataclasses with one payload dataclass per op, and
the shipper transposed them into a ``CVBatch`` (``from_records``).
Production now writes columns directly (:mod:`repro.redo.log`); the record
objects and the transpose live on here for two jobs:

* **builders** -- hand-written streams say ``ChangeVector(CVOp.INSERT, 5,
  9, 0, X, InsertPayload(0, (1,)))`` and reach the pipeline through
  :func:`from_records` (``tests/helpers.py::batch_of``);
* **oracle** -- :func:`record_of_append` rebuilds the record object a
  ``RedoLog.append`` call describes, so a log's slices can be checked
  column for column against ``from_records`` of the records it was given
  (``tests/property/test_ingest_batching.py``), and :func:`records_of`
  reads a batch back one change vector at a time for the naive miner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence, Union

from repro.common.ids import DBA, InstanceId, ObjectId, TenantId, TransactionId
from repro.common.scn import SCN
from repro.redo.batch import CVBatch
from repro.redo.records import CVOp, DDLMarkerPayload


@dataclass(frozen=True, slots=True)
class InsertPayload:
    slot: int
    values: tuple


@dataclass(frozen=True, slots=True)
class UpdatePayload:
    slot: int
    new_values: tuple
    changed_columns: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class DeletePayload:
    slot: int
    old_values: tuple


@dataclass(frozen=True, slots=True)
class UndoPayload:
    slot: int


@dataclass(frozen=True, slots=True)
class CommitPayload:
    """``modifies_imcs`` is the section III-E flag (None = specialized
    redo generation off)."""

    commit_scn: SCN
    modifies_imcs: Optional[bool] = None


@dataclass(frozen=True, slots=True)
class TruncatePayload:
    object_id: ObjectId


Payload = Union[
    InsertPayload,
    UpdatePayload,
    DeletePayload,
    UndoPayload,
    CommitPayload,
    TruncatePayload,
    DDLMarkerPayload,
    None,
]


@dataclass(frozen=True, slots=True)
class ChangeVector:
    """One change to one block."""

    op: CVOp
    dba: DBA
    object_id: ObjectId
    tenant: TenantId
    xid: TransactionId
    payload: Payload = None


@dataclass(frozen=True, slots=True)
class RedoRecord:
    """An SCN-stamped group of change vectors from one redo thread."""

    scn: SCN
    thread: InstanceId
    cvs: tuple[ChangeVector, ...]

    def __post_init__(self) -> None:
        if not self.cvs:
            raise ValueError("a redo record needs at least one change vector")

    def __len__(self) -> int:
        return len(self.cvs)


# ----------------------------------------------------------------------
# objects -> columns (the displaced transpose)
# ----------------------------------------------------------------------
def _columns_of(scn: SCN, cv: ChangeVector) -> tuple[int, object, object]:
    """``(slot, row, payload)`` as the columnar log stores them."""
    payload = cv.payload
    if isinstance(payload, InsertPayload):
        return payload.slot, payload.values, None
    if isinstance(payload, UpdatePayload):
        return payload.slot, payload.new_values, payload.changed_columns
    if isinstance(payload, DeletePayload):
        return payload.slot, payload.old_values, None
    if isinstance(payload, UndoPayload):
        return payload.slot, None, None
    if isinstance(payload, CommitPayload):
        assert payload.commit_scn == scn, (
            "a commit record's SCN is its commitSCN"
        )
        return -1, None, payload.modifies_imcs
    if isinstance(payload, TruncatePayload):
        assert payload.object_id == cv.object_id
        return -1, None, None
    return -1, None, payload  # a DDL marker's payload, or None


def from_records(records: Sequence[RedoRecord], cv_base: int = 0) -> CVBatch:
    """Transpose a contiguous run of one thread's records."""
    cvs = [(r.scn, cv) for r in records for cv in r.cvs]
    extras = [_columns_of(scn, cv) for scn, cv in cvs]
    return CVBatch(
        records[0].thread if records else 0,
        cv_base,
        [scn for scn, __ in cvs],
        [cv.dba for __, cv in cvs],
        [cv.object_id for __, cv in cvs],
        [int(cv.op) for __, cv in cvs],
        [cv.xid for __, cv in cvs],
        [cv.tenant for __, cv in cvs],
        [slot for slot, __, __ in extras],
        [row for __, row, __ in extras],
        [payload for __, __, payload in extras],
        list(accumulate([0, *map(len, records)]))[:-1],
        [r.scn for r in records],
    )


# ----------------------------------------------------------------------
# columns -> objects
# ----------------------------------------------------------------------
def cv_of(
    scn: SCN,
    op: int,
    dba: DBA,
    object_id: ObjectId,
    tenant: TenantId,
    xid: TransactionId,
    slot: int,
    row: Optional[tuple],
    payload: object,
) -> ChangeVector:
    """The change vector object one log row describes."""
    op = CVOp(op)
    if op is CVOp.INSERT:
        payload = InsertPayload(slot, row)
    elif op is CVOp.UPDATE:
        payload = UpdatePayload(slot, row, payload)
    elif op is CVOp.DELETE:
        payload = DeletePayload(slot, row)
    elif op is CVOp.UNDO:
        payload = UndoPayload(slot)
    elif op is CVOp.TXN_COMMIT:
        payload = CommitPayload(scn, payload)
    elif op is CVOp.TRUNCATE:
        payload = TruncatePayload(object_id)
    return ChangeVector(op, dba, object_id, tenant, xid, payload)


def record_of_append(
    thread: InstanceId, scn: SCN, cvs: Sequence[tuple]
) -> RedoRecord:
    """The record object one ``RedoLog.append`` call describes."""
    return RedoRecord(scn, thread, tuple(cv_of(scn, *cv) for cv in cvs))


def cv_at(batch: CVBatch, i: int) -> ChangeVector:
    """The change vector at position ``i`` of a batch, as an object."""
    return cv_of(
        batch.scns[i],
        batch.ops[i],
        batch.dbas[i],
        batch.object_ids[i],
        batch.tenants[i],
        batch.xids[i],
        batch.slots[i],
        batch.rows[i],
        batch.payloads[i],
    )


def records_of(batch: CVBatch) -> list[RedoRecord]:
    """A batch read back as record objects."""
    bounds = [*batch.record_starts, batch.n_cvs]
    return [
        RedoRecord(
            scn,
            batch.thread,
            tuple(cv_at(batch, i) for i in range(lo, hi)),
        )
        for scn, lo, hi in zip(batch.record_scns, bounds, bounds[1:])
    ]
