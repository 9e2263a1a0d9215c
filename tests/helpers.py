"""Record-shaped conveniences over the batch-only ingest API.

Production code has one unit of flow from shipper to flush -- the
:class:`~repro.redo.batch.CVBatch` (and its per-worker
:class:`~repro.redo.batch.CVChunk`); a single record is a batch of width 1.
Component tests still want to say "deliver these records", "mine this one
CV", "what did the miner buffer for this transaction" -- these helpers say
it through the real batch API, so there is no second production path to
say it through.

The columnar tests get the same treatment: :func:`cu_buffers` and
:func:`cu_dictionary` read a CU's encoded parts for byte-for-byte
comparison, and :func:`global_dictionary` seeds a join-group dictionary.
:func:`standby_reads_like_primary` holds a standby's scan against the
primary's consistent read at the standby's QuerySCN.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.dbim_adg.journal import AnchorNode, RecordChunk
from repro.dbim_adg.mining import MiningComponent
from repro.imcs.compression import (
    ColumnCU,
    GlobalDictionary,
    NumericCU,
    SharedDictionaryCU,
)
from repro.redo.batch import CVBatch, CVChunk
from repro.redo.log import RedoLog

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
    scn: int


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
                batch.ops.tolist(),
                batch.dbas.tolist(),
                batch.object_ids.tolist(),
                batch.tenants.tolist(),
                batch.xid_objects,
                batch.slots.tolist(),
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
    return [scn for batch in batches for scn in batch.record_scns.tolist()]


def chunk_of(records: Iterable[RedoRecord]) -> CVChunk:
    """A whole batch as one worker's chunk (no distribution)."""
    batch = batch_of(records)
    return CVChunk(batch, np.arange(batch.n_cvs, dtype=np.int64))


def queued_scn_cvs(queue: Iterable[CVChunk]) -> list[tuple[int, ChangeVector]]:
    """The unapplied ``(scn, cv)`` pairs on one worker's queue, in order."""
    return [
        (int(chunk.batch.scns[i]), cv_at(chunk.batch, i))
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
            for slot, dba, object_id, scn in chunk.columns.T.tolist():
                out.append(
                    MinedRecord(
                        object_id,
                        dba,
                        (slot,) if slot >= 0 else (),
                        chunk.tenant,
                        scn,
                    )
                )
    return out


def add_records(
    anchor: AnchorNode, worker_id: int, records: Iterable[MinedRecord]
) -> None:
    """Buffer records into one worker's area as a single mined slice; a
    multi-slot record becomes one row per slot, ``()`` a whole-block row."""
    rows = [
        (r.object_id, r.dba, slot, r.scn)
        for r in records
        for slot in (r.slots or (-1,))
    ]
    object_ids, dbas, slots, scns = zip(*rows)
    anchor.add_chunk(
        worker_id,
        RecordChunk(
            np.array([slots, dbas, object_ids, scns], dtype=np.int64),
            anchor.tenant,
        ),
        min(scns),
    )


def cu_buffers(cu: ColumnCU) -> dict[str, np.ndarray]:
    """A CU's encoded numpy buffers by name: what two equal units hold
    byte for byte."""
    if isinstance(cu, NumericCU):
        return {"data": cu._data, "nulls": cu._nulls, "is_int": cu._is_int}
    return {"codes": cu._codes}  # DictionaryCU, SharedDictionaryCU


def cu_dictionary(cu: ColumnCU) -> list[str]:
    """The values a CU's codes index: its own sorted dictionary, or its
    join group's whole value list (empty for a NUMBER column)."""
    if isinstance(cu, SharedDictionaryCU):
        return dictionary_values(cu.dictionary)
    return list(getattr(cu, "_dictionary", ()))


def dictionary_values(dictionary: GlobalDictionary) -> list[str]:
    """A join group's values in code order (codes are stable forever)."""
    return [dictionary.decode(code) for code in range(len(dictionary))]


def global_dictionary(values: Iterable[str]) -> GlobalDictionary:
    """A join-group dictionary that has assigned ``values`` in order."""
    dictionary = GlobalDictionary()
    for value in values:
        dictionary.encode(value)
    return dictionary


def standby_reads_like_primary(deployment, table_name: str = "T") -> bool:
    """The standby's scan of ``table_name`` holds exactly the rows a
    consistent read on the primary sees at the standby's QuerySCN."""
    scn = deployment.standby.query_scn.value
    table = deployment.primary.catalog.table(table_name)
    return sorted(deployment.standby.query(table_name).rows) == sorted(
        values
        for __, values in table.full_scan(scn, deployment.primary.txn_table)
    )
