"""Parallel redo apply: distributor and recovery workers.

"Redo apply is massively parallelized for Oracle ADG by distributing the
SCN-ordered set of CVs amongst recovery worker processes based on a
hashing scheme.  Each DBA is hashed to a particular recovery worker
identifier, so a recovery worker process can independently process the CVs
it has been assigned, and apply the CVs to database blocks in the SCN
order" (paper, II-A, Fig. 3).  Here the hash is ``dba % n_workers``,
taken in one pass over a batch's ``dbas`` list: each worker's positions
in the batch become its :class:`~repro.redo.batch.CVChunk`.

The standby dictionary learns a table from its create-table marker when
the distributor routes the batch that carries it: the merger releases redo
in SCN order, so every later data CV finds its object in the dictionary on
whichever worker its block hashes to, and static hashing never waits on
another worker.

Two DBIM-on-ADG hooks attach here, exactly where the paper puts them:

* a **batch sniffer** (the Mining Component) mines every chunk of CVs
  once, before a worker applies any of it;
* a **flush helper** lets workers participate in cooperative invalidation
  flush: each step first drains a batch of worklink nodes if a worklink
  exists, then returns to redo apply (paper, III-D-2).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional, Protocol

from repro import obs
from repro.chaos import sites
from repro.common.ids import DBA, InstanceId, ObjectId, WorkerId
from repro.common.scn import NULL_SCN, SCN
from repro.redo.batch import CVBatch, CVChunk
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler, wake

#: Simulated CPU seconds to apply one change vector.
APPLY_COST_PER_CV = 1e-6


class CVApplier(Protocol):
    """What a standby database must provide to redo apply."""

    def install_dictionary(self, batch: CVBatch) -> None:
        """Learn the tables created by the batch's create-table markers
        (called by the distributor before it routes the batch)."""
        ...

    def apply_cv(self, batch: CVBatch, i: int, scn: SCN) -> None:
        """Apply the change vector at position ``i`` of ``batch``."""
        ...


#: Batch sniffer signature: (chunk, worker_id); mines the chunk from its
#: apply cursor on.
BatchSniffer = Callable[[CVChunk, WorkerId], None]

#: Flush helper signature: (worker_id, batch) -> nodes flushed this call;
#: -1 when a worklink exists but draining is blocked (the worker is
#: *waiting* on the flush, accounted separately from flush work).
FlushHelper = Callable[[WorkerId, int], int]


class ApplyDistributor:
    """Hashes the CVs of merged :class:`CVBatch`es onto per-worker queues
    by DBA: one pass over the batch's ``dbas`` collects each worker's
    positions, one :class:`CVChunk` per worker per batch.  Each batch's
    create-table markers reach ``applier``'s dictionary before any of its
    CVs queue.

    On a MIRA standby ``owns`` keeps the CVs this apply instance owns, by
    object and block; ``distributed_through`` still advances over every
    record, because an instance is caught up through SCN s once it has
    applied all CVs it owns below s.  The dictionary is installed before
    the filter, so an instance that owns none of a create-table marker
    still learns the table."""

    def __init__(
        self,
        n_workers: int,
        applier: CVApplier,
        owns: Optional[Callable[[ObjectId, DBA], bool]] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one recovery worker")
        self.n_workers = n_workers
        self.applier = applier
        self.owns = owns
        self.queues: list[deque[CVChunk]] = [
            deque() for __ in range(n_workers)
        ]
        #: Per queue, the worker draining it (woken by each append).
        self.waiters: list[list[Actor]] = [[] for __ in range(n_workers)]
        #: Highest SCN fully handed out to the queues.
        self.distributed_through: SCN = NULL_SCN
        #: CVs another apply instance owns (MIRA).
        self.cvs_skipped = 0
        #: CVs per distributed batch.
        self._batch_cvs = obs.histogram("adg.apply.batch_cvs")

    def distribute(self, batches: list[CVBatch]) -> int:
        """Route every CV of the batches; returns the CV count."""
        routed = 0
        for batch in batches:
            self.applier.install_dictionary(batch)
            routed += self._distribute_batch(batch)
        return routed

    def _distribute_batch(self, batch: CVBatch) -> int:
        """Queue the batch's (owned) CVs by dba hash; returns how many."""
        dbas = batch.dbas
        positions = range(batch.n_cvs)
        if self.owns is not None:
            owns, object_ids = self.owns, batch.object_ids
            positions = [i for i in positions if owns(object_ids[i], dbas[i])]
            self.cvs_skipped += batch.n_cvs - len(positions)
        n_workers = self.n_workers
        shares: list[list[int]] = [[] for __ in range(n_workers)]
        for i in positions:
            shares[dbas[i] % n_workers].append(i)
        for w, share in enumerate(shares):
            if share:
                # ascending positions: SCN order within the worker
                self.queues[w].append(CVChunk(batch, share))
                wake(self.waiters[w])
        n_cvs = len(positions)
        if n_cvs:
            self._batch_cvs.observe(n_cvs)
        if batch.n_records and batch.last_scn > self.distributed_through:
            self.distributed_through = batch.last_scn
        return n_cvs

    def pending(self) -> int:
        return sum(len(chunk) for queue in self.queues for chunk in queue)

    def queued_positions(self) -> Iterator[tuple[InstanceId, list[int]]]:
        """``(thread, log CV offsets)`` of every still-queued chunk's
        unapplied CVs -- the instant-restart tail replay excludes these."""
        for queue in self.queues:
            for chunk in queue:
                yield chunk.batch.thread, chunk.remaining_positions()


class RecoveryWorker(Actor):
    """One parallel-apply worker process."""

    def __init__(
        self,
        worker_id: WorkerId,
        distributor: ApplyDistributor,
        applier: CVApplier,
        batch_sniffer: Optional[BatchSniffer] = None,
        flush_helper: Optional[FlushHelper] = None,
        batch: int = 64,
        flush_batch: int = 8,
        node: Optional[CpuNode] = None,
        cost_per_cv: float = APPLY_COST_PER_CV,
        name: Optional[str] = None,
    ) -> None:
        self.worker_id = worker_id
        self.distributor = distributor
        self.applier = applier
        self.batch_sniffer = batch_sniffer
        self.flush_helper = flush_helper
        self.batch = batch
        self.flush_batch = flush_batch
        self.cost_per_cv = cost_per_cv
        self.node = node
        self.name = name or f"recovery-worker-{worker_id}"
        self._obs = obs.current()
        self.cvs_applied = 0
        #: Always 0 since every CV applies on its first attempt; kept because
        #: the ``bench_e2e`` harness reports it.
        self.apply_stalls = 0
        #: Always 0 since a sniff mines its whole chunk; kept because the
        #: ``bench_e2e`` harness reports it.
        self.sniff_retries = 0
        #: Steps skipped by an installed chaos fault (injected slowness).
        self.chaos_stalls = 0
        obs.bind(self, {
            "cvs_applied": "adg.worker.cvs_applied",
            "sniff_retries": "adg.worker.sniff_retries",
            "apply_stalls": "adg.worker.apply_stalls",
            "chaos_stalls": "adg.worker.chaos_stalls",
        }, worker=worker_id)
        #: Simulated seconds spent *blocked* on the cooperative flush
        #: helper (worklink present but drain stalled) -- wait time, kept
        #: out of the coordinator's publish-latency accounting.
        self._coop_flush_wait = obs.histogram(
            "adg.apply.coop_flush_wait", worker=worker_id
        )
        #: Sim time when the current blocked-on-flush episode began, or
        #: None when not blocked.
        self._flush_blocked_since: Optional[float] = None
        self._chaos = sites.declare("adg.apply_worker", owner=self)
        #: SCN of the last CV this worker applied.
        self.applied_scn: SCN = NULL_SCN
        distributor.waiters[worker_id].append(self)

    # ------------------------------------------------------------------
    def applied_through(self) -> SCN:
        """The SCN through which this worker is definitely caught up.

        With an empty queue the worker has applied everything distributed
        so far; otherwise everything strictly below its queue head.
        """
        queue = self.distributor.queues[self.worker_id]
        if not queue:
            return self.distributor.distributed_through
        return queue[0].head_scn - 1

    # ------------------------------------------------------------------
    def step(self, sched: Scheduler) -> Optional[float]:
        chaos = self._chaos
        if chaos.injectors is not None:
            decision = chaos.consult("step", worker=self.worker_id)
            if decision.action is sites.Action.STALL:
                # injected slowness: burn a step without doing any work
                self.chaos_stalls += 1
                return self.cost_per_cv * self.batch
        cost = 0.0
        # 1. cooperative invalidation flush (paper, III-D-2): help drain
        #    the worklink before continuing redo apply.  -1 = worklink
        #    exists but the drain is blocked: the worker is waiting, not
        #    working, so the episode lands in coop_flush_wait rather than
        #    being charged to apply/publish latency.
        flushed = 0
        if self.flush_helper is not None:
            flushed = self.flush_helper(self.worker_id, self.flush_batch)
            if flushed < 0:
                if self._flush_blocked_since is None:
                    self._flush_blocked_since = sched.now
            else:
                if self._flush_blocked_since is not None:
                    self._coop_flush_wait.observe(
                        sched.now - self._flush_blocked_since
                    )
                    self._flush_blocked_since = None
                if flushed:
                    cost += self.cost_per_cv * flushed

        # 2. redo apply in SCN order from this worker's queue.
        queue = self.distributor.queues[self.worker_id]
        tracer = obs.tracer_of(self._obs)
        applied = 0
        while queue and applied < self.batch:
            head = queue[0]
            if not head.mined:
                self._mine(head)
            applied += self._apply(head, self.batch - applied, tracer)
            if not len(head):
                queue.popleft()
        if applied:
            cost += self.cost_per_cv * applied
            self.cvs_applied += applied
        # parked (until a queue append or a new worklink) once the queue is
        # empty and a short batch drained the worklink; -1 is a blocked
        # drain
        if not queue and 0 <= flushed < self.flush_batch:
            self.park = True
        return cost if cost > 0 else None

    # ------------------------------------------------------------------
    def _mine(self, chunk: CVChunk) -> None:
        """Mine the *whole* chunk before any of it applies, and mark it,
        so a chunk whose apply spans several steps is mined once.  This
        is safe because the coordinator's consistency point never passes
        any worker's queue head, so early-mined commits cannot chop ahead
        of their data."""
        if self.batch_sniffer is not None:
            self.batch_sniffer(chunk, self.worker_id)
        chunk.mined = True

    def _apply(self, chunk: CVChunk, budget: int, tracer) -> int:
        """Apply up to ``budget`` CVs of a mined chunk, in SCN order."""
        window = chunk.indices[chunk.pos : chunk.pos + budget]
        batch = chunk.batch
        apply_cv = self.applier.apply_cv
        scns = batch.scns
        for i in window:
            scn = scns[i]
            apply_cv(batch, i, scn)
            if tracer is not None:
                tracer.record_applied(scn)
        self.applied_scn = scns[window[-1]]
        chunk.pos += len(window)
        return len(window)
