"""Columnar change-vector batches: the vectorized ingest unit of work.

Redo is columns from the statement on (:mod:`repro.redo.log`); a
:class:`CVBatch` is a range of one thread's log records converted to numpy
once, at the shipper (or by a FAL gap fetch, or the instant-restart tail
fetch), and those arrays travel through delivery, merge, distribution,
mining and flush.  Worker hashing is one numpy operation per batch; the
per-CV walks of mining and apply read the same columns as Python lists,
derived once per batch (``scalars``).

Three object columns ride along as plain list slices for physical apply
and the in-order special CVs: the :class:`TransactionId` the row store
and transaction tables key on (``xid_objects``; ``xids`` is its packed
int64 form), the row tuple (``rows``) and the per-op payload
(``payloads``) -- see :mod:`repro.redo.records` for what each op stores.
A change vector has no object of its own: it is a position, and
``(thread, cv_base + i)`` names it for the life of the log, which is what
the instant-restart tail replay uses to exclude still-queued CVs.

Record boundaries are kept (``record_starts`` / ``record_scns``) so a
batch can be *split* on a record boundary: duplicate-prefix discard at
the receiver, watermark cuts at the merger.  Chaos drop/delay decisions
are taken per shipment.

A batch is the *only* unit of flow from shipper to flush: a single record
is a batch of width 1 through the same code (FAL gap fills, MIRA apply
instances and the instant-restart tail replay included).

:class:`CVChunk` is the per-worker view of one distributed batch: an
index array into the batch, an apply cursor and a mined mark -- the item
type of every recovery-worker queue.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

import numpy as np

from repro.common.ids import InstanceId, TransactionId
from repro.common.scn import SCN
from repro.redo.records import CVOp

#: How the miner treats each op: ``MINE_DATA`` ops are journaled in bulk,
#: ``MINE_SPECIAL`` ops (the transaction state machine + the DDL
#: information table) are processed one at a time, in order; everything
#: else carries nothing minable.  UNDO restores rows to their committed
#: state, which is what the IMCU already holds.  A TRUNCATE's IMCU drop
#: rides its DDL marker (processed at QuerySCN advancement); journaling
#: the block-wipe CV would anchor it under the system xid -- which never
#: commits, so the anchor would pin the journal floor forever.
MINE_DATA, MINE_SPECIAL = 1, 2
MINE_CLASS = np.zeros(len(CVOp), dtype=np.int8)
MINE_CLASS[[CVOp.INSERT, CVOp.UPDATE, CVOp.DELETE]] = MINE_DATA
MINE_CLASS[
    [
        CVOp.TXN_BEGIN,
        CVOp.TXN_COMMIT,
        CVOp.TXN_ABORT,
        CVOp.DDL_MARKER,
    ]
] = MINE_SPECIAL

#: xid encoding: (instance << 40) | sequence fits both components of a
#: :class:`TransactionId` into one int64 array element.
_XID_SHIFT = 40


def encode_xid(xid: TransactionId) -> int:
    return (xid.instance << _XID_SHIFT) | xid.sequence


class CVScalars(NamedTuple):
    """A batch's per-CV columns as Python lists, for the walks that read
    one CV at a time (mining, physical apply): indexing a list costs a
    fraction of a numpy ``.item()`` call.  ``classes`` is ``MINE_CLASS``
    of each op, ``xids`` the packed codes."""

    classes: list[int]
    xids: list[int]
    object_ids: list[int]
    tenants: list[int]
    scns: list[int]
    ops: list[int]
    dbas: list[int]
    slots: list[int]


class CVBatch:
    """Struct-of-arrays view of a run of redo records from one thread.

    All arrays and the three object lists are per-CV and row-aligned;
    ``cv_base`` is the log offset of the first CV.  ``record_starts`` /
    ``record_scns`` are per-record: the CV offset (within the batch) where
    each record begins, and its SCN.  Array slices are numpy views, so
    splitting at the receiver or merger copies only the object lists.
    """

    __slots__ = (
        "thread",
        "cv_base",
        "scns",
        "dbas",
        "object_ids",
        "ops",
        "xids",
        "tenants",
        "slots",
        "xid_objects",
        "rows",
        "payloads",
        "record_starts",
        "record_scns",
        "_scalars",
        "_mined_columns",
    )

    def __init__(
        self,
        thread: InstanceId,
        cv_base: int,
        scns: np.ndarray,
        dbas: np.ndarray,
        object_ids: np.ndarray,
        ops: np.ndarray,
        xids: np.ndarray,
        tenants: np.ndarray,
        slots: np.ndarray,
        xid_objects: list[TransactionId],
        rows: list,
        payloads: list,
        record_starts: np.ndarray,
        record_scns: np.ndarray,
    ) -> None:
        self.thread = thread
        self.cv_base = cv_base
        self.scns = scns
        self.dbas = dbas
        self.object_ids = object_ids
        self.ops = ops
        self.xids = xids
        self.tenants = tenants
        self.slots = slots
        self.xid_objects = xid_objects
        self.rows = rows
        self.payloads = payloads
        self.record_starts = record_starts
        self.record_scns = record_scns
        self._scalars: Optional[CVScalars] = None
        self._mined_columns: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def n_cvs(self) -> int:
        return len(self.rows)

    @property
    def n_records(self) -> int:
        return int(self.record_scns.size)

    def __len__(self) -> int:
        return int(self.record_scns.size)

    @property
    def scn(self) -> SCN:
        """First record's SCN (heap/merged-deque ordering key)."""
        return int(self.record_scns[0])

    @property
    def last_scn(self) -> SCN:
        return int(self.record_scns[-1])

    # ------------------------------------------------------------------
    # A batch is immutable and shared by every worker's chunk of it (and
    # by every fleet member), so what mining and apply derive from it
    # alone is derived once.
    @property
    def scalars(self) -> CVScalars:
        """The per-CV columns as lists (see :class:`CVScalars`)."""
        if self._scalars is None:
            self._scalars = CVScalars(
                MINE_CLASS[self.ops].tolist(),
                self.xids.tolist(),
                self.object_ids.tolist(),
                self.tenants.tolist(),
                self.scns.tolist(),
                self.ops.tolist(),
                self.dbas.tolist(),
                self.slots.tolist(),
            )
        return self._scalars

    @property
    def mined_columns(self) -> np.ndarray:
        """The four rows of a :class:`~repro.dbim_adg.journal.RecordChunk`
        (``slots``, ``dbas``, ``object_ids``, ``scns``) as one
        ``(4, n_cvs)`` matrix, so a chunk's share is one gather."""
        if self._mined_columns is None:
            self._mined_columns = np.concatenate(
                (self.slots, self.dbas, self.object_ids, self.scns)
            ).reshape(4, -1)
        return self._mined_columns

    # ------------------------------------------------------------------
    def slice_records(self, lo: int, hi: int) -> "CVBatch":
        """The sub-batch covering records ``[lo, hi)`` (array views)."""
        starts = self.record_starts
        cv_lo = int(starts[lo]) if lo < starts.size else len(self.rows)
        cv_hi = int(starts[hi]) if hi < starts.size else len(self.rows)
        return CVBatch(
            self.thread,
            self.cv_base + cv_lo,
            self.scns[cv_lo:cv_hi],
            self.dbas[cv_lo:cv_hi],
            self.object_ids[cv_lo:cv_hi],
            self.ops[cv_lo:cv_hi],
            self.xids[cv_lo:cv_hi],
            self.tenants[cv_lo:cv_hi],
            self.slots[cv_lo:cv_hi],
            self.xid_objects[cv_lo:cv_hi],
            self.rows[cv_lo:cv_hi],
            self.payloads[cv_lo:cv_hi],
            starts[lo:hi] - cv_lo,
            self.record_scns[lo:hi],
        )

    def split_at_scn(
        self, scn: SCN
    ) -> tuple["CVBatch", Optional["CVBatch"]]:
        """Cut at a record boundary: (records with SCN <= ``scn``, rest).

        The caller guarantees at least the first record qualifies.  The
        second element is None when every record qualifies.
        """
        cut = int(np.searchsorted(self.record_scns, scn, side="right"))
        if cut >= self.record_scns.size:
            return self, None
        return (
            self.slice_records(0, cut),
            self.slice_records(cut, self.record_scns.size),
        )

    def record_cv_counts(self) -> Iterator[tuple[SCN, int]]:
        """``(scn, CV count)`` per record, for the lifecycle tracer; only
        materialised when a tracer is armed."""
        counts = np.diff(self.record_starts, append=len(self.rows))
        return zip(self.record_scns.tolist(), counts.tolist())


class CVChunk:
    """One worker's share of a distributed :class:`CVBatch`.

    ``indices`` lists the batch positions of this worker's CVs (ascending,
    hence in SCN order); ``pos`` is the apply cursor.  The whole chunk is
    mined before any of it is applied (sniff-then-apply at chunk scale),
    in one sniff from ``pos`` on, and ``mined`` marks it done.
    """

    __slots__ = ("batch", "indices", "pos", "mined", "stats_noted")

    def __init__(self, batch: CVBatch, indices: np.ndarray) -> None:
        self.batch = batch
        self.indices: list[int] = indices.tolist()
        #: Chunk position of the next CV to apply.
        self.pos = 0
        #: True once the CVs from ``pos`` on are mined.
        self.mined = False
        #: True once the miner's batch-size histogram saw this chunk
        #: (kept across restarts).
        self.stats_noted = False

    def __len__(self) -> int:
        """CVs remaining to apply."""
        return len(self.indices) - self.pos

    @property
    def n_cvs(self) -> int:
        return len(self.indices)

    @property
    def head_scn(self) -> SCN:
        return self.batch.scalars.scns[self.indices[self.pos]]

    def remaining_positions(self) -> np.ndarray:
        """Log CV offsets (within the batch's thread) of the unapplied
        CVs, for the instant-restart queue-exclusion check."""
        unapplied = np.array(self.indices[self.pos :], dtype=np.int64)
        return unapplied + self.batch.cv_base

    def reset_mining(self) -> None:
        """Instance restart: the journal was cleared, so everything not
        yet applied is mined again, from ``pos``, at apply time."""
        self.mined = False
