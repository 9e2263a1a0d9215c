"""The numpy formulation of the Mining Component's chunk pass, kept as the
oracle of the plain-Python one (:meth:`MiningComponent.sniff_chunk`).

This is the pass production used to run: per chunk, a gather of the op
classes, a boolean mask for the data CVs, the IMCS-enabled filter as one
binary search over the sorted enabled ids, one gather of a ``(6, n)``
matrix of what mining reads, one stable argsort by xid code and a run cut
by ``!=`` on the sorted codes; the specials are then walked one at a time,
reading each scalar with ``.item()``.  At the widths the live workloads
ship (a worker chunk averages ~7 CVs) those ~18 small-array calls per
chunk cost more than the apply they ride on; past a few hundred CVs per
chunk they win.  ``benchmarks/bench_ingest.py`` times both at 1, 7, 85
and 512 CVs per chunk, and ``tests/property/test_mining_pass.py``
requires the production pass to leave exactly what this one leaves.

:class:`NumpyMiningComponent` subclasses the production component only
for its state (journal, commit table, DDL table, counters, tracer hook):
every method that reads a CV is overridden here, so a defect in the
production walk or in its special-CV handling shows as a difference.

It reads a batch as the numpy arrays ``RedoLog.batch`` used to ship
(:func:`arrays_of`, with each :class:`TransactionId` packed into one
int64 code), converted once per batch by :meth:`NumpyMiningComponent.load`
-- which the benchmark calls before its timer, where the log's slice
used to make them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro import obs
from repro.common.ids import TransactionId, WorkerId
from repro.common.scn import SCN
from repro.dbim_adg.commit_table import CommitTableNode
from repro.dbim_adg.journal import RecordChunk
from repro.dbim_adg.mining import MiningComponent
from repro.imcs.imcu import row_keys
from repro.redo.batch import (
    MINE_CLASS, MINE_DATA, MINE_SPECIAL, CVBatch, CVChunk,
)
from repro.redo.records import CVOp

_TXN_BEGIN, _TXN_COMMIT, _TXN_ABORT = (
    CVOp.TXN_BEGIN, CVOp.TXN_COMMIT, CVOp.TXN_ABORT,
)
_DDL_MARKER = CVOp.DDL_MARKER


#: Each op's mine class as an array, for the gather.
MINE_CLASSES = np.array(MINE_CLASS, dtype=np.int8)

#: xid encoding: (instance << 40) | sequence fits both components of a
#: :class:`TransactionId` into one int64 array element, in the same order.
_XID_SHIFT = 40


def encode_xid(xid: TransactionId) -> int:
    return (xid.instance << _XID_SHIFT) | xid.sequence


def decode_xid(code: int) -> TransactionId:
    """The inverse of :func:`encode_xid`."""
    return TransactionId(code >> _XID_SHIFT, code & ((1 << _XID_SHIFT) - 1))


class ArrayBatch(NamedTuple):
    """A batch's scalar columns as numpy arrays; ``xids`` packed."""

    scns: np.ndarray
    dbas: np.ndarray
    object_ids: np.ndarray
    ops: np.ndarray
    xids: np.ndarray
    tenants: np.ndarray
    slots: np.ndarray


def arrays_of(batch: CVBatch) -> ArrayBatch:
    """The arrays ``RedoLog.batch`` made of each shipment before its
    columns stayed lists."""
    return ArrayBatch(
        np.array(batch.scns, dtype=np.int64),
        np.array(batch.dbas, dtype=np.int64),
        np.array(batch.object_ids, dtype=np.int64),
        np.array(batch.ops, dtype=np.int8),
        np.array([encode_xid(xid) for xid in batch.xids], dtype=np.int64),
        np.array(batch.tenants, dtype=np.int64),
        np.array(batch.slots, dtype=np.int64),
    )


def enabled_mask(ids: np.ndarray, object_ids: np.ndarray) -> np.ndarray:
    """Which of ``object_ids`` are enabled: one binary search over
    ``ids``, the sorted enabled ids plus a sentinel no object id equals."""
    return ids[np.searchsorted(ids[:-1], object_ids)] == object_ids


class NumpyMiningComponent(MiningComponent):
    """The Mining Component with the numpy chunk pass."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: id(batch) -> (batch, its arrays), converted once per batch.
        self._arrays: dict[int, tuple[CVBatch, ArrayBatch]] = {}
        #: id(batch) -> (batch, per-CV MINE_CLASS, (6, n_cvs) matrix of
        #: slots, dbas, object ids, SCNs, xid codes and tenants): derived
        #: once per batch, as production cached them on the batch.
        self._derived: dict[int, tuple[CVBatch, np.ndarray, np.ndarray]] = {}
        #: (the enabled ids it was built from, their sorted array plus
        #: sentinel), rebuilt when the enabled set changes.
        self._enabled: Optional[tuple[frozenset, np.ndarray]] = None

    def load(self, batch: CVBatch) -> ArrayBatch:
        """The batch's arrays, converted on first use."""
        loaded = self._arrays.get(id(batch))
        if loaded is None or loaded[0] is not batch:
            loaded = self._arrays[id(batch)] = (batch, arrays_of(batch))
        return loaded[1]

    def _derive(self, batch: CVBatch) -> tuple[np.ndarray, np.ndarray]:
        derived = self._derived.get(id(batch))
        if derived is None or derived[0] is not batch:
            arrays = self.load(batch)
            derived = self._derived[id(batch)] = (
                batch,
                MINE_CLASSES[arrays.ops],
                np.concatenate(
                    (
                        arrays.slots,
                        arrays.dbas,
                        arrays.object_ids,
                        arrays.scns,
                        arrays.xids,
                        arrays.tenants,
                    )
                ).reshape(6, -1),
            )
        return derived[1], derived[2]

    def sniff_chunk(self, chunk: CVChunk, worker_id: WorkerId) -> None:
        indices = np.asarray(chunk.indices, dtype=np.int64)
        if not chunk.stats_noted:
            chunk.stats_noted = True
            self._batch_cvs.observe(len(indices))
        indices = indices[chunk.pos :]
        batch = chunk.batch
        scns = self.load(batch).scns
        tracer = obs.tracer_of(self._obs)
        classes = self._derive(batch)[0][indices]
        self._mine_data(batch, indices[classes == MINE_DATA], worker_id)
        if tracer is not None:
            for scn in scns[indices[classes != MINE_SPECIAL]].tolist():
                tracer.record_mined(scn)
        commits: list[CommitTableNode] = []
        for i in indices[classes == MINE_SPECIAL].tolist():
            scn = scns.item(i)
            self._sniff_special(batch, i, scn, commits)
            if tracer is not None:
                tracer.record_mined(scn)
        if commits:
            self.commit_table.insert_batch(commits)

    def _mine_data(
        self, batch: CVBatch, data: np.ndarray, worker_id: WorkerId
    ) -> None:
        """Gather the enabled data CVs at batch positions ``data``, sort
        them stably by xid code and journal each transaction's run as a
        slice of the gather's object ids and row keys, made lists."""
        enabled = frozenset(self.imcs.enabled_object_ids)
        if self._enabled is None or enabled != self._enabled[0]:
            self._enabled = (
                enabled,
                np.array([*sorted(enabled), np.iinfo(np.int64).min]),
            )
        object_ids = self.load(batch).object_ids
        data = data[enabled_mask(self._enabled[1], object_ids[data])]
        n = data.size
        if not n:
            return
        columns = self._derive(batch)[1][:, data]
        columns = columns[:, np.argsort(columns[4], kind="stable")]
        xids = columns[4]
        starts = [0, *((xids[1:] != xids[:-1]).nonzero()[0] + 1).tolist()]
        # per run: the lowest SCN (its first, the sort being stable), the
        # xid code and the tenant
        first_scns, codes, tenants = columns[3:, starts].tolist()
        object_ids = columns[2].tolist()
        keys = row_keys(columns[1], columns[0]).tolist()
        for code, tenant, first_scn, lo, hi in zip(
            codes, tenants, first_scns, starts, [*starts[1:], n]
        ):
            anchor = self.journal.get_or_create(decode_xid(code), tenant)
            anchor.add_chunk(
                worker_id,
                RecordChunk(object_ids[lo:hi], keys[lo:hi], tenant),
                first_scn,
            )
            self.data_records_mined += hi - lo

    def _sniff_special(
        self,
        batch: CVBatch,
        i: int,
        scn: SCN,
        commits: list[CommitTableNode],
    ) -> None:
        arrays = self.load(batch)
        op = arrays.ops.item(i)
        if op == _DDL_MARKER:
            self.ddl_table.add(scn, batch.payloads[i])
            self.ddl_markers_mined += 1
            return
        xid = batch.xids[i]
        tenant = arrays.tenants.item(i)
        if op == _TXN_BEGIN:
            anchor = self.journal.get_or_create(xid, tenant)
            anchor.has_begin = True
            anchor.note_scn(scn)
        elif op == _TXN_ABORT:
            self.journal.remove(xid)
            if self.on_abort is not None:
                self.on_abort(xid, scn)
        elif op == _TXN_COMMIT:
            anchor = self.journal.get(xid)
            if anchor is not None and anchor.has_begin:
                commits.append(
                    CommitTableNode(
                        xid=xid, commit_scn=scn, anchor=anchor, tenant=tenant
                    )
                )
            # III-E: a missing begin; the commit-record flag decides
            elif batch.payloads[i] is False:
                pass
            elif self.tail_mode:
                self.tail_commits_skipped += 1
            else:
                commits.append(
                    CommitTableNode(
                        xid=xid, commit_scn=scn, anchor=anchor,
                        tenant=tenant, coarse=True,
                    )
                )
                self.coarse_nodes_created += 1
        else:
            raise ValueError(f"unhandled control op {CVOp(op)!r}")
        self.control_records_mined += 1
