"""Change-vector batches: the ingest unit of work.

Redo is columns from the statement on (:mod:`repro.redo.log`); a
:class:`CVBatch` is a range of one thread's log records as plain list
slices of the log's columns, cut at the shipper (or by a FAL gap fetch,
or the instant-restart tail fetch), and those lists travel through
delivery, merge, distribution and mining.  Every hop reads one CV at a
time -- worker hashing, mining and apply index the lists directly -- so
no column is an array, and what mining journals of a CV is plain values
too (:class:`~repro.dbim_adg.journal.RecordChunk`).

Beside the scalar columns ride three object columns: the
:class:`TransactionId` the row store, transaction tables and journal key
on (``xids``), the row tuple (``rows``) and the per-op payload
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

:class:`CVChunk` is the per-worker view of one distributed batch: a list
of positions into the batch, an apply cursor and a mined mark -- the item
type of every recovery-worker queue.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import sub
from typing import Iterator, Optional

from repro.common.ids import InstanceId, TransactionId
from repro.common.scn import SCN
from repro.redo.records import CVOp

#: How the miner treats each op (indexed by op): ``MINE_DATA`` ops are
#: journaled in bulk, ``MINE_SPECIAL`` ops (the transaction state machine
#: + the DDL information table) are processed one at a time, in order;
#: everything else carries nothing minable.  UNDO restores rows to their
#: committed state, which is what the IMCU already holds.  A TRUNCATE's
#: IMCU drop rides its DDL marker (processed at QuerySCN advancement);
#: journaling the block-wipe CV would anchor it under the system xid --
#: which never commits, so the anchor would pin the journal floor forever.
MINE_DATA, MINE_SPECIAL = 1, 2
MINE_CLASS: tuple[int, ...] = tuple(
    MINE_DATA if op in (CVOp.INSERT, CVOp.UPDATE, CVOp.DELETE)
    else MINE_SPECIAL if op in (
        CVOp.TXN_BEGIN, CVOp.TXN_COMMIT, CVOp.TXN_ABORT, CVOp.DDL_MARKER
    )
    else 0
    for op in CVOp
)


class CVBatch:
    """A run of redo records from one thread, one list per column.

    The CV columns are row-aligned; ``cv_base`` is the log offset of the
    first CV.  ``record_starts`` / ``record_scns`` are per-record: the CV
    offset (within the batch) where each record begins, and its SCN.  A
    batch is immutable and shared by every copy and every worker chunk;
    each column is its own slice copy, so neither a growing log nor a
    split changes a batch already cut.
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
        "rows",
        "payloads",
        "record_starts",
        "record_scns",
    )

    def __init__(
        self,
        thread: InstanceId,
        cv_base: int,
        scns: list[SCN],
        dbas: list[int],
        object_ids: list[int],
        ops: list[int],
        xids: list[TransactionId],
        tenants: list[int],
        slots: list[int],
        rows: list,
        payloads: list,
        record_starts: list[int],
        record_scns: list[SCN],
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
        self.rows = rows
        self.payloads = payloads
        self.record_starts = record_starts
        self.record_scns = record_scns

    # ------------------------------------------------------------------
    @property
    def n_cvs(self) -> int:
        return len(self.ops)

    @property
    def n_records(self) -> int:
        return len(self.record_scns)

    @property
    def scn(self) -> SCN:
        """First record's SCN (heap/merged-deque ordering key)."""
        return self.record_scns[0]

    @property
    def last_scn(self) -> SCN:
        return self.record_scns[-1]

    # ------------------------------------------------------------------
    def slice_records(self, lo: int, hi: int) -> "CVBatch":
        """The sub-batch covering records ``[lo, hi)``."""
        starts = self.record_starts
        cv_lo = starts[lo] if lo < len(starts) else self.n_cvs
        cv_hi = starts[hi] if hi < len(starts) else self.n_cvs
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
            self.rows[cv_lo:cv_hi],
            self.payloads[cv_lo:cv_hi],
            [start - cv_lo for start in starts[lo:hi]],
            self.record_scns[lo:hi],
        )

    def split_at_scn(
        self, scn: SCN
    ) -> tuple["CVBatch", Optional["CVBatch"]]:
        """Cut at a record boundary: (records with SCN <= ``scn``, rest).

        The caller guarantees at least the first record qualifies.  The
        second element is None when every record qualifies.
        """
        cut = bisect_right(self.record_scns, scn)
        if cut >= self.n_records:
            return self, None
        return (
            self.slice_records(0, cut),
            self.slice_records(cut, self.n_records),
        )

    def record_cv_counts(self) -> Iterator[tuple[SCN, int]]:
        """``(scn, CV count)`` per record, for the lifecycle tracer."""
        starts = self.record_starts
        ends = [*starts[1:], self.n_cvs]
        return zip(self.record_scns, map(sub, ends, starts))


class CVChunk:
    """One worker's share of a distributed :class:`CVBatch`.

    ``indices`` lists the batch positions of this worker's CVs (ascending,
    hence in SCN order); ``pos`` is the apply cursor.  The whole chunk is
    mined before any of it is applied (sniff-then-apply at chunk scale),
    in one sniff from ``pos`` on, and ``mined`` marks it done.
    """

    __slots__ = ("batch", "indices", "pos", "mined", "stats_noted")

    def __init__(self, batch: CVBatch, indices: list[int]) -> None:
        self.batch = batch
        self.indices = indices
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
        return self.batch.scns[self.indices[self.pos]]

    def remaining_positions(self) -> list[int]:
        """Log CV offsets (within the batch's thread) of the unapplied
        CVs, for the instant-restart queue-exclusion check."""
        base = self.batch.cv_base
        return [base + i for i in self.indices[self.pos :]]

    def reset_mining(self) -> None:
        """Instance restart: the journal was cleared, so everything not
        yet applied is mined again, from ``pos``, at apply time."""
        self.mined = False
