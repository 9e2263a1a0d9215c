"""The log merger: SCN-ordering redo from multiple primary threads.

"On the Standby instance, a Log Merger process orders the redo records
based on their SCN" (paper, II-A).  A record at SCN ``s`` can only be
released once every thread has delivered redo *past* ``s`` -- otherwise a
slower thread could still deliver an earlier record.  The merge watermark
is therefore the minimum over threads of the highest received SCN, which
is why idle primary instances emit heartbeat redo (see
``repro.db.primary``): without it, one quiet instance would stall
recovery for the whole cluster.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Optional

from repro import obs
from repro.common.scn import SCN
from repro.redo.batch import CVBatch
from repro.redo.shipping import RedoReceiver
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler, wake


class LogMerger(Actor):
    """Merges per-thread inbound queues into one SCN-ordered stream."""

    #: Simulated CPU seconds to merge one record.
    COST_PER_RECORD = 1e-6

    def __init__(
        self,
        receiver: RedoReceiver,
        node: Optional[CpuNode] = None,
        name: str = "log-merger",
    ) -> None:
        self.receiver = receiver
        self.node = node
        self.name = name
        self._heap: list[tuple[SCN, int, CVBatch]] = []
        self._seq = 0
        #: SCN-ordered CVBatch slices ready for the apply distributor.
        self.merged: deque[CVBatch] = deque()
        self.merged_through_scn: SCN = 0
        #: The coordinator distributing the merged redo, woken by a release.
        self.waiters: list = []
        receiver.waiters.append(self)
        self._obs = obs.current()
        #: Records released past the merge watermark in SCN order.
        self.records_merged = 0
        obs.bind(self, {"records_merged": "adg.merger.records_merged"})

    # ------------------------------------------------------------------
    def _watermark(self) -> SCN:
        scns = self.receiver.received_scn.values()
        return min(scns) if scns else 0

    def merge_available(self) -> int:
        """Pull queued batches into the heap, release redo at or below
        the watermark in SCN order.  Returns the number of records
        released.

        A batch is released as the longest *record run* that respects
        global SCN order: bounded by the watermark and by the first SCN
        of the next heap item (another thread's redo may interleave),
        with the remainder pushed back.  A whole batch from the only
        active thread releases in one heap operation.
        """
        for thread in self.receiver.threads:
            queue = self.receiver.queue(thread)
            while queue:
                batch = queue.popleft()
                self._seq += 1
                heapq.heappush(self._heap, (batch.scn, self._seq, batch))
        watermark = self._watermark()
        released = 0
        tracer = obs.tracer_of(self._obs)
        while self._heap and self._heap[0][0] <= watermark:
            __, __, batch = heapq.heappop(self._heap)
            limit = watermark
            if self._heap and self._heap[0][0] < limit:
                # records past the next item's first SCN must wait
                # behind it; equal SCNs may interleave either way
                limit = self._heap[0][0]
            run, rest = batch.split_at_scn(limit)
            if rest is not None:
                self._seq += 1
                heapq.heappush(self._heap, (rest.scn, self._seq, rest))
            self.merged.append(run)
            self.merged_through_scn = max(
                self.merged_through_scn, run.last_scn
            )
            released += run.n_records
            if tracer is not None:
                for scn in run.record_scns:
                    tracer.record_merged(scn)
        if released:
            self.records_merged += released
            wake(self.waiters)
        return released

    def take_merged(self, n: int) -> list[CVBatch]:
        """Consume merged batches worth up to ``n`` records (distributor
        side)."""
        out = []
        taken = 0
        while self.merged and taken < n:
            batch = self.merged.popleft()
            out.append(batch)
            taken += batch.n_records
        return out

    @property
    def pending_merged(self) -> int:
        return len(self.merged)

    # ------------------------------------------------------------------
    def step(self, sched: Scheduler) -> Optional[float]:
        released = 0
        for __ in range(4):  # a few heap rounds per step
            released += self.merge_available()
            if self.receiver.pending() == 0:
                # the watermark only rises with a landing, which wakes it
                self.park = True
                break
        if released == 0:
            return None
        return self.COST_PER_RECORD * released
