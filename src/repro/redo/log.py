"""Per-instance redo logs.

Each primary instance (RAC "thread") owns one :class:`RedoLog`; records are
appended in nondecreasing SCN order within a thread.  The log is
struct-of-arrays from the statement on: one column per record field (SCN,
first-CV offset) and per CV field (see :mod:`repro.redo.records` for the
row layout), so a statement leaves no per-CV or per-record object behind
and everything downstream -- a shipment, a FAL gap fetch, the
instant-restart tail -- is :meth:`RedoLog.batch` over a range of record
positions.  The columns are plain lists: appends are amortised O(1), and
a batch is one slice of each, a copy, so a batch already shipped never
sees a later append.  Readers hold their own positions, so the log
has no notion of consumption, and it is never recycled: ``(thread, CV
offset)`` names a change vector for the life of the primary.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from repro import obs
from repro.common.errors import RedoCorruptionError
from repro.common.ids import InstanceId, ObjectId
from repro.common.scn import NULL_SCN, SCN
from repro.redo.batch import CVBatch
from repro.sim.scheduler import wake


class RedoLog:
    """Append-only columnar redo for one redo thread."""

    def __init__(self, thread: InstanceId) -> None:
        self.thread = thread
        # per record
        self._record_scns: list[SCN] = []
        self._record_starts: list[int] = []
        # per change vector (its record's SCN repeated: a batch's SCN
        # column is then one slice, no per-slice repeat)
        self._scns: list[SCN] = []
        self._ops: list[int] = []
        self._dbas: list[int] = []
        self._object_ids: list[int] = []
        self._tenants: list[int] = []
        self._xids: list = []
        self._slots: list[int] = []
        self._rows: list = []
        self._payloads: list = []
        self._last_scn: SCN = NULL_SCN
        self._obs = obs.current()
        #: Actors reading the log (its shippers), woken by each append.
        self.waiters: list = []

    def append(
        self, thread: InstanceId, scn: SCN, cvs: Sequence[tuple]
    ) -> int:
        """Write one redo record: ``cvs`` rows as laid out in
        :mod:`repro.redo.records`, all generated at ``scn``.  Returns the
        log offset of its last CV."""
        if thread != self.thread:
            raise RedoCorruptionError(
                f"record for thread {thread} appended to thread "
                f"{self.thread}'s log"
            )
        if scn < self._last_scn:
            raise RedoCorruptionError(
                f"out-of-order SCN {scn} after {self._last_scn} "
                f"in thread {self.thread}"
            )
        if not cvs:
            raise ValueError("a redo record needs at least one change vector")
        ops = self._ops
        start = len(ops)
        self._record_starts.append(start)
        self._record_scns.append(scn)
        for op, dba, object_id, tenant, xid, slot, row, payload in cvs:
            ops.append(op)
            self._scns.append(scn)
            self._dbas.append(dba)
            self._object_ids.append(object_id)
            self._tenants.append(tenant)
            self._xids.append(xid)
            self._slots.append(slot)
            self._rows.append(row)
            self._payloads.append(payload)
        self._last_scn = scn
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            tracer.record_generated(thread, scn, len(ops) - start)
        wake(self.waiters)
        return len(ops) - 1

    def __len__(self) -> int:
        """Records generated."""
        return len(self._record_scns)

    @property
    def last_scn(self) -> SCN:
        """SCN of the newest record (redo generation progress)."""
        return self._last_scn

    def row_address(self, i: int) -> tuple[ObjectId, int, int]:
        """``(object_id, dba, slot)`` of the CV at log offset ``i``."""
        return self._object_ids[i], self._dbas[i], self._slots[i]

    def scn_range(self, lo_scn: SCN, hi_scn: SCN) -> tuple[int, int]:
        """Record positions ``[lo, hi)`` holding ``lo_scn <= scn <= hi_scn``."""
        scns = self._record_scns
        return bisect_left(scns, lo_scn), bisect_right(scns, hi_scn)

    def batch(self, lo: int, hi: int) -> CVBatch:
        """The records at positions ``[lo, hi)`` (clipped to the log) as
        one :class:`CVBatch`."""
        starts = self._record_starts
        n_cvs = len(self._ops)
        hi = min(hi, len(starts))
        lo = min(lo, hi)
        cv_lo = starts[lo] if lo < len(starts) else n_cvs
        cv_hi = starts[hi] if hi < len(starts) else n_cvs
        return CVBatch(
            self.thread,
            cv_lo,
            self._scns[cv_lo:cv_hi],
            self._dbas[cv_lo:cv_hi],
            self._object_ids[cv_lo:cv_hi],
            self._ops[cv_lo:cv_hi],
            self._xids[cv_lo:cv_hi],
            self._tenants[cv_lo:cv_hi],
            self._slots[cv_lo:cv_hi],
            self._rows[cv_lo:cv_hi],
            self._payloads[cv_lo:cv_hi],
            [start - cv_lo for start in starts[lo:hi]],
            self._record_scns[lo:hi],
        )
