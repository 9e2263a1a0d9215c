"""Record-shaped conveniences over the batch-only ingest API.

Production code has one unit of flow from shipper to flush -- the
:class:`~repro.redo.batch.CVBatch` (and its per-worker
:class:`~repro.redo.batch.CVChunk`); a single record is a batch of width 1.
Component tests still want to say "deliver these records", "mine this one
CV", "what did the miner buffer for this transaction" -- these helpers say
it through the real batch API, so there is no second production path to
say it through.

The columnar tests get the same treatment: :func:`encode_column` is one
column through the block encoder, and :func:`cu_buffers` and
:func:`cu_dictionary` read a CU's encoded parts for byte-for-byte
comparison.
:func:`standby_reads_like_primary` holds a standby's scan against the
primary's consistent read at the standby's QuerySCN, and
:class:`ClientInserts` is a client's own record of the rows its
transactions inserted (the primary keeps none beside its redo).
:class:`FunctionActor` and :func:`run_steps` drive the scheduler one
callable and one dispatch at a time.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from repro.common.ids import RowId
from repro.dbim_adg.journal import AnchorNode, RecordChunk
from repro.dbim_adg.mining import MiningComponent
from repro.imcs.compression import (
    ColumnCU,
    NumericCU,
    encode_rows,
    row_matrix,
)
from repro.imcs.imcu import IMCU, ROW_KEY_SHIFT, row_keys
from repro.imcs.smu import SMU
from repro.imcs.store import InMemoryColumnStore
from repro.redo.batch import CVBatch, CVChunk
from repro.redo.log import RedoLog
from repro.sim import Actor, CpuNode, Scheduler

from tests.naive_batch import (
    ChangeVector,
    RedoRecord,
    cv_at,
    from_records,
    records_of as batch_records,
)


class MinedRecord(NamedTuple):
    """One mined tuple (paper, Fig. 6) as tests like to read it.
    ``slots`` empty means the whole block."""

    object_id: int
    dba: int
    slots: tuple[int, ...]
    tenant: int


def batch_of(records: Iterable[RedoRecord], cv_base: int = 0) -> CVBatch:
    """Hand-written records of one redo thread as a shipment."""
    return from_records(list(records), cv_base)


def append_record(log: RedoLog, record: RedoRecord) -> None:
    """Append one hand-written record to a redo log."""
    batch = batch_of([record])
    log.append(
        record.thread,
        record.scn,
        tuple(
            zip(
                batch.ops,
                batch.dbas,
                batch.object_ids,
                batch.tenants,
                batch.xids,
                batch.slots,
                batch.rows,
                batch.payloads,
            )
        ),
    )


def log_records(log: RedoLog, lo: int = 0) -> list[RedoRecord]:
    """A log's records from position ``lo``, read back as objects."""
    return batch_records(log.batch(lo, len(log)))


def record_scns(batches: Iterable[CVBatch]) -> list[int]:
    """The SCN of every record in a run of batches (a receiver queue, the
    merger's output), in order."""
    return [scn for batch in batches for scn in batch.record_scns]


def chunk_of(records: Iterable[RedoRecord]) -> CVChunk:
    """A whole batch as one worker's chunk (no distribution)."""
    batch = batch_of(records)
    return CVChunk(batch, list(range(batch.n_cvs)))


def queued_scn_cvs(queue: Iterable[CVChunk]) -> list[tuple[int, ChangeVector]]:
    """The unapplied ``(scn, cv)`` pairs on one worker's queue, in order."""
    return [
        (chunk.batch.scns[i], cv_at(chunk.batch, i))
        for chunk in queue
        for i in chunk.indices[chunk.pos:]
    ]


class NullApplier:
    """A ``CVApplier`` that learns no tables and applies nothing: for
    tests of routing, mining and worker scheduling."""

    def install_dictionary(self, batch: CVBatch) -> None:
        pass

    def apply_cv(self, batch: CVBatch, i: int, scn: int) -> None:
        pass


def apply_one(applier, cv: ChangeVector, scn: int) -> None:
    """Distribute and apply one CV as position 0 of a width-1 batch: the
    dictionary install the distributor runs, then the worker's apply."""
    batch = batch_of([RedoRecord(scn, cv.xid.instance, (cv,))])
    applier.install_dictionary(batch)
    applier.apply_cv(batch, 0, scn)


def sniff_one(
    miner: MiningComponent, cv: ChangeVector, scn: int, worker_id: int = 0
) -> None:
    """Mine one CV as a width-1 chunk."""
    chunk = chunk_of([RedoRecord(scn, cv.xid.instance, (cv,))])
    miner.sniff_chunk(chunk, worker_id)


def records_of(
    anchor: AnchorNode, worker_id: Optional[int] = None
) -> list[MinedRecord]:
    """Everything buffered on an anchor, worker area by worker area (or
    one worker's area), in append order."""
    areas = (
        anchor.worker_chunks.values()
        if worker_id is None
        else [anchor.worker_chunks.get(worker_id, [])]
    )
    out = []
    for chunks in areas:
        for chunk in chunks:
            for object_id, key in zip(chunk.object_ids, chunk.keys):
                dba = (key + 1) >> ROW_KEY_SHIFT  # a whole block's slot is -1
                slot = key - (dba << ROW_KEY_SHIFT)
                out.append(
                    MinedRecord(
                        object_id,
                        dba,
                        (slot,) if slot >= 0 else (),
                        chunk.tenant,
                    )
                )
    return out


def add_records(
    anchor: AnchorNode,
    worker_id: int,
    records: Iterable[MinedRecord],
    first_scn: int,
) -> None:
    """Buffer records into one worker's area as a single mined slice whose
    lowest SCN is ``first_scn``; a multi-slot record becomes one row per
    slot, ``()`` a whole-block row."""
    rows = [
        (r.object_id, row_keys(r.dba, slot))
        for r in records
        for slot in (r.slots or (-1,))
    ]
    anchor.add_chunk(
        worker_id,
        RecordChunk(
            [object_id for object_id, __ in rows],
            [key for __, key in rows],
            anchor.tenant,
        ),
        first_scn,
    )


def unit_covering(
    store: InMemoryColumnStore, object_id: int, dba: int
) -> Optional[SMU]:
    """The live unit covering ``dba`` of an enabled object, or None."""
    smu = store.segment(object_id).dba_to_unit.get(dba)
    return None if smu is None or smu.dropped else smu


def row_key(rowid: RowId) -> int:
    """A physical address as the one integer the IMCS speaks."""
    return row_keys(rowid.dba, rowid.slot)


def row_position(imcu: IMCU, rowid: RowId) -> Optional[int]:
    """Row position of a physical address in ``imcu``, or None if the
    unit never captured it."""
    positions, __ = imcu.locate_keys(np.array([row_key(rowid)]))
    return int(positions[0]) if positions.size else None


def txn_state(txn_table, xid):
    """What ``txn_table`` holds for ``xid``: a ``TxnState``, or None if
    it never saw the transaction."""
    return txn_table._states.get(xid)


def current_rows(segment) -> int:
    """Slots of ``segment`` whose current version is a live row (no CR)."""
    return sum(
        block.current(slot) is not None
        for block in segment.blocks()
        for slot in range(block.used_slots)
    )


def encode_column(values: list, is_numeric: bool) -> ColumnCU:
    """One column's CU: a width-1 :func:`encode_rows` (NUMBER vector or
    sorted dictionary)."""
    matrix = row_matrix([(value,) for value in values], 1)
    return encode_rows(matrix, [(0, is_numeric)])[0][0]


def encoded_unit(matrix, specs, names) -> IMCU:
    """A unit of :func:`encode_rows`' CUs and blocks over ``matrix``, its
    columns named ``names`` (no addresses)."""
    cus, blocks = encode_rows(matrix, specs)
    return IMCU(0, 0, 1, {}, dict(zip(names, cus)), len(matrix), blocks=blocks)


def merge_rows(old: IMCU, names, keep, matrix, specs, take):
    """:func:`encode_rows`' merge of ``old``'s rows ``keep`` and then
    ``matrix``'s rows (none with a prior), in ``take`` order."""
    source = np.concatenate((keep, np.full(len(matrix), -1)))[take]
    at = np.empty_like(take)
    at[take] = np.arange(take.size)
    return encode_rows(matrix, specs, (old, names, source, at[len(keep):]))


def cu_buffers(cu: ColumnCU) -> dict[str, np.ndarray]:
    """A CU's encoded numpy buffers by name: what two equal units hold
    byte for byte."""
    if isinstance(cu, NumericCU):
        return {"data": cu._data, "nulls": cu._nulls, "is_int": cu._is_int}
    return {"codes": cu._codes}  # DictionaryCU


def cu_dictionary(cu: ColumnCU) -> list[str]:
    """The values a CU's codes index: its sorted dictionary (empty for a
    NUMBER column)."""
    return list(getattr(cu, "_dictionary", ()))


def standby_reads_like_primary(deployment, table_name: str = "T") -> bool:
    """The standby's scan of ``table_name`` holds exactly the rows a
    consistent read on the primary sees at the standby's QuerySCN."""
    scn = deployment.standby.query_scn.value
    table = deployment.primary.catalog.table(table_name)
    return sorted(deployment.standby.query(table_name).rows) == sorted(
        values
        for __, values in table.full_scan(scn, deployment.primary.txn_table)
    )


class ClientInserts:
    """A client's record of the rows each of its transactions inserted,
    fed by the ``RowId`` every ``primary.insert`` returns: what a rollback
    takes back.  The primary keeps no change list to read it from; a
    transaction's changes are its redo."""

    def __init__(self, primary) -> None:
        self.primary = primary
        self._by_xid: dict = {}

    def insert(self, txn, table_name: str, values: tuple) -> RowId:
        rowid = self.primary.insert(txn, table_name, values)
        self._by_xid.setdefault(txn.xid, []).append(rowid)
        return rowid

    def rollback(self, txn) -> set[RowId]:
        """Roll ``txn`` back; the rows it had inserted, now gone."""
        self.primary.rollback(txn)
        return set(self._by_xid.pop(txn.xid, ()))


class FunctionActor(Actor):
    """A plain callable as an actor."""

    def __init__(
        self,
        fn: Callable[[Scheduler], Optional[float]],
        name: str = "fn",
        node: Optional[CpuNode] = None,
        speed: float = 1.0,
    ) -> None:
        self._fn = fn
        self.name = name
        self.node = node
        self.speed = speed

    def step(self, sched: Scheduler) -> Optional[float]:
        return self._fn(sched)


def run_steps(sched: Scheduler, n: int) -> None:
    """Dispatch exactly ``n`` heap entries of ``sched`` (fewer if it runs
    out)."""
    for __ in range(n):
        if sched._next_time() is None:
            break
        sched._dispatch_one()
