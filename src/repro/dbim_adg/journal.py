"""The IM-ADG Journal (paper, section III-C, Fig. 7).

"The core structure of the IM-ADG Journal contains an in-memory hash table
mapping a transaction identifier to its invalidation records.  The hash
table is sized based on the degree of parallelism employed by the ADG
architecture, to ensure minimal contention between the recovery worker
processes. [...] The resulting hash-chains are protected using a 'bucket
latch'. [...] Once an anchor node is created for a transaction, each
recovery worker is provided its own area in the anchor node to buffer the
invalidation records it mines.  This gets rid of all synchronization needed
between multiple recovery workers mining invalidation records for a
transaction."

Latch discipline here mirrors that: hash-chain lookup/insert/delete takes
the bucket latch (a miss makes the caller retry on its next step, like a
spinning process), while appends into a worker's own buffer area are
latch-free.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.common.ids import TenantId, TransactionId, WorkerId
from repro.common.latch import BucketLatchSet
from repro.common.scn import SCN


@dataclass(slots=True)
class RecordChunk:
    """One bulk-mined slice of a transaction's invalidation data
    (paper, Fig. 6: which rows of which block of which object the
    transaction modified, plus the tenant for multi-tenancy), appended
    latch-free into a worker's buffer area.  ``columns`` is a ``(4, n)``
    int64 matrix, one column per record in SCN order, rows ``slots``
    (< 0 = the whole block is affected), ``dbas``, ``object_ids`` and
    ``scns`` (of the sniffed change vectors) -- least- to most-significant
    sort key first, the order ``np.lexsort`` reads.  It is usually a view
    of the gather the miner made for its whole worker chunk."""

    columns: np.ndarray
    tenant: TenantId

    def __len__(self) -> int:
        return self.columns.shape[1]


@dataclass(slots=True)
class AnchorNode:
    """Hash-table node anchoring one transaction's invalidation records."""

    xid: TransactionId
    tenant: TenantId
    #: True once the 'transaction begin' control CV has been mined; a
    #: commit arriving without it signals a pre-restart transaction
    #: (paper, III-E).
    has_begin: bool = False
    #: Per-worker buffer areas of bulk-mined RecordChunks -- appends need
    #: no synchronisation.
    worker_chunks: dict[WorkerId, list[RecordChunk]] = field(
        default_factory=dict
    )
    #: Owning journal's floor-heap feed: called with (scn, xid) whenever
    #: ``first_scn`` is lowered, so ``min_first_scn`` stays O(log n).
    floor_sink: Optional[Callable[[SCN, TransactionId], None]] = None
    #: SCN of the earliest CV mined for this transaction (0 = none yet).
    #: The checkpoint store records the minimum over live anchors as the
    #: redo-tail replay floor: everything an instant restart must re-mine
    #: for this transaction lies at or beyond it.
    first_scn: SCN = 0

    def note_scn(self, scn: SCN) -> None:
        if self.first_scn == 0 or scn < self.first_scn:
            self.first_scn = scn
            if self.floor_sink is not None:
                self.floor_sink(scn, self.xid)

    def add_chunk(
        self, worker_id: WorkerId, chunk: RecordChunk, first_scn: SCN
    ) -> None:
        """Append one bulk-mined slice (``first_scn`` = its lowest SCN)
        into this worker's buffer area (latch-free)."""
        self.note_scn(first_scn)
        self.worker_chunks.setdefault(worker_id, []).append(chunk)

    def chunks(self) -> list[RecordChunk]:
        """Every worker's buffered chunks (the flush gathers over these)."""
        return [c for cs in self.worker_chunks.values() for c in cs]

    @property
    def n_records(self) -> int:
        return sum(len(c) for c in self.chunks())


class IMADGJournal:
    """Hash table of anchor nodes with bucket latches."""

    def __init__(self, n_buckets: int = 64) -> None:
        if n_buckets < 1:
            raise ValueError("journal needs at least one bucket")
        self._buckets: list[dict[TransactionId, AnchorNode]] = [
            {} for __ in range(n_buckets)
        ]
        self.latches = BucketLatchSet(n_buckets, name="im-adg-journal")
        #: Lazy-deletion min-heap of (first_scn, xid) floor candidates;
        #: fed by every anchor's ``floor_sink``, consumed (and pruned of
        #: stale entries) by :meth:`min_first_scn`.
        self._floor_heap: list[tuple[SCN, TransactionId]] = []
        self.anchors_created = 0
        self.latch_breaks = 0
        obs.bind(self, {
            "anchors_created": "dbim.journal.anchors_created",
            "latch_breaks": "dbim.journal.latch_breaks",
        })

    def _note_floor(self, scn: SCN, xid: TransactionId) -> None:
        heapq.heappush(self._floor_heap, (scn, xid))

    def _bucket_index(self, xid: TransactionId) -> int:
        return hash(xid) % len(self._buckets)

    # Every operation takes the bucket latch for the duration of the call
    # and returns None/False on a miss; callers retry on their next step.

    def get_or_create(
        self, xid: TransactionId, tenant: TenantId, owner: object
    ) -> Optional[AnchorNode]:
        index = self._bucket_index(xid)
        latch = self.latches.latch_for(index)
        if not latch.try_acquire(owner):
            return None
        try:
            anchor = self._buckets[index].get(xid)
            if anchor is None:
                anchor = AnchorNode(xid=xid, tenant=tenant)
                anchor.floor_sink = self._note_floor
                self._buckets[index][xid] = anchor
                self.anchors_created += 1
            return anchor
        finally:
            latch.release(owner)

    def get(
        self, xid: TransactionId, owner: object
    ) -> tuple[bool, Optional[AnchorNode]]:
        """Returns (latch acquired, anchor-or-None)."""
        index = self._bucket_index(xid)
        latch = self.latches.latch_for(index)
        if not latch.try_acquire(owner):
            return False, None
        try:
            return True, self._buckets[index].get(xid)
        finally:
            latch.release(owner)

    def remove(self, xid: TransactionId, owner: object) -> Optional[bool]:
        """Remove an anchor.  None = latch miss (retry); bool = removed."""
        index = self._bucket_index(xid)
        latch = self.latches.latch_for(index)
        if not latch.try_acquire(owner):
            return None
        try:
            return self._buckets[index].pop(xid, None) is not None
        finally:
            latch.release(owner)

    # ------------------------------------------------------------------
    # latch recovery (bounded retry, then break the dead owner's latch)
    # ------------------------------------------------------------------
    # A bucket latch observed held by someone else can only belong to a
    # crashed or stalled actor: every legitimate critical section on the
    # journal is contained within a single scheduler step, so no live
    # actor ever holds a bucket latch while another actor runs.  The
    # recovery variants spin a bounded number of times (in case of a
    # same-step recursive-owner edge) and then break the latch, exactly
    # like PMON cleaning up after a dead process.

    def _recover_latch(self, index: int) -> None:
        latch = self.latches.latch_for(index)
        broken = latch.break_held()
        if broken is not None:
            self.latch_breaks += 1

    def remove_with_recovery(
        self, xid: TransactionId, owner: object, spins: int = 3
    ) -> bool:
        """Like :meth:`remove`, but never livelocks: after ``spins``
        failed attempts the (necessarily dead) holder's latch is broken.
        """
        for __ in range(spins):
            removed = self.remove(xid, owner)
            if removed is not None:
                return removed
        self._recover_latch(self._bucket_index(xid))
        removed = self.remove(xid, owner)
        assert removed is not None
        return removed

    def get_with_recovery(
        self, xid: TransactionId, owner: object, spins: int = 3
    ) -> Optional[AnchorNode]:
        """Like :meth:`get`, but breaks a dead holder's latch instead of
        reporting a miss forever."""
        for __ in range(spins):
            acquired, anchor = self.get(xid, owner)
            if acquired:
                return anchor
        self._recover_latch(self._bucket_index(xid))
        acquired, anchor = self.get(xid, owner)
        assert acquired
        return anchor

    def min_first_scn(self) -> SCN:
        """Earliest first-CV SCN over every live anchor (0 = no anchors).

        O(log n) via the lazy-deletion floor heap instead of a full
        anchor scan: the heap top is the global minimum candidate; an
        entry is stale -- and popped -- when its anchor is gone
        (committed/aborted/removed) or was re-created with a different
        floor.  ``first_scn`` only ever decreases on a live anchor, and
        every decrease pushes a fresh entry, so a surviving top entry
        matching its anchor's ``first_scn`` is exact.

        Read latch-free: the checkpoint writer runs inside a single
        scheduler step (under the shared quiesce lock), and every journal
        critical section is likewise contained within one step, so no
        concurrent mutation can be in flight.
        """
        heap = self._floor_heap
        while heap:
            scn, xid = heap[0]
            anchor = self._buckets[self._bucket_index(xid)].get(xid)
            if anchor is not None and anchor.first_scn == scn:
                return scn
            heapq.heappop(heap)
        return 0

    def clear(self) -> None:
        """Drop all state (standby instance restart: the journal has no
        persistent footprint)."""
        for bucket in self._buckets:
            bucket.clear()
        self._floor_heap.clear()

    @property
    def anchor_count(self) -> int:
        return sum(len(b) for b in self._buckets)

    @property
    def record_count(self) -> int:
        return sum(
            anchor.n_records
            for bucket in self._buckets
            for anchor in bucket.values()
        )
