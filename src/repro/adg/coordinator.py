"""The recovery coordinator: consistency points and QuerySCN advancement.

The coordinator periodically computes the *consistency point* -- the
highest SCN up to which every recovery worker has finished applying (also
bounded by the merger's progress, since unmerged redo may still carry lower
SCNs).  On a MIRA standby it is the minimum over every apply instance, and
the coordinator hands each instance's merged redo to its distributor.
Before publishing it as the new QuerySCN it runs the DBIM-on-ADG
advancement protocol (paper, III-D):

1. ask the flush protocol to *chop* the IM-ADG Commit Table into a
   worklink for every transaction with commitSCN <= the target, and
   process DDL information (drop IMCUs whose object definition changed)
   -- both strictly pre-publication;
2. drain the worklink -- the coordinator flushes batches itself and the
   recovery workers help via cooperative flush (unless the ablation
   switch ``ApplyConfig.cooperative_flush`` is off);
3. publish the new QuerySCN.  This is the paper's quiesce period: it is
   one scheduler step, and a step is atomic, so no population capture
   can observe the QuerySCN in flux (DESIGN §2).

Every standby runs this protocol.  The paper's "without DBIM-on-ADG"
baseline is a standby with nothing enabled in memory: the same steps run,
with no data changes mined to flush.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro import obs
from repro.chaos import sites
from repro.common.scn import SCN
from repro.adg.apply import ApplyDistributor, RecoveryWorker
from repro.adg.merger import LogMerger
from repro.adg.queryscn import QuerySCNPublisher
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler, wake

#: Simulated CPU seconds for one coordinator bookkeeping pass.
COORDINATION_COST = 2e-6
#: Simulated CPU seconds per worklink node flushed by the coordinator.
FLUSH_COST_PER_NODE = 1e-6


def _applied_through(merger: LogMerger, workers: list[RecoveryWorker]) -> SCN:
    """Highest SCN one apply instance has merged, distributed and applied
    everything below."""
    point = merger.merged_through_scn
    # Unmerged-but-received redo is already counted: merged_through_scn
    # only moves past what the watermark released.  Undistributed merged
    # records bound progress too.
    if merger.pending_merged:
        point = min(point, merger.merged[0].scn - 1)
    for worker in workers:
        point = min(point, worker.applied_through())
    return point


class AdvanceProtocol(Protocol):
    """What the DBIM-on-ADG flush component exposes to the coordinator."""

    def begin_advance(self, target_scn: SCN) -> None:
        """Chop the commit table into the worklink for ``target_scn`` and
        process DDL information (paper III-D steps 1 and 3): DDL-affected
        IMCUs are dropped *before* publication so no query at the new
        QuerySCN can see a stale object definition."""
        ...

    def coordinator_flush(self, batch: int) -> int:
        """Coordinator-side drain; returns nodes flushed."""
        ...

    def is_advance_complete(self) -> bool:
        """True once the worklink is drained and remote acks are in."""
        ...

    def finish_advance(self, target_scn: SCN) -> None:
        """Post-publication bookkeeping: retire the drained worklink.
        No DDL work happens here -- that already ran in
        :meth:`begin_advance`, pre-publication."""
        ...


class RecoveryCoordinator(Actor):
    """Tracks apply progress; advances the QuerySCN."""

    def __init__(
        self,
        merger: LogMerger,
        distributor: ApplyDistributor,
        workers: list[RecoveryWorker],
        query_scn: QuerySCNPublisher,
        advance_protocol: AdvanceProtocol,
        interval: float = 0.01,
        distribute_batch: int = 512,
        flush_batch: int = 32,
        node: Optional[CpuNode] = None,
        name: str = "recovery-coordinator",
    ) -> None:
        self.merger = merger
        self.distributor = distributor
        self.workers = workers
        #: The other apply instances of a MIRA standby (each with its own
        #: ``merger``, ``distributor`` and ``workers``).
        self.peers: list = []
        self.query_scn = query_scn
        #: Read on every step, never cached: tests and the e2e tracer swap
        #: or wrap it after construction.
        self.advance_protocol = advance_protocol
        self.interval = interval
        self.distribute_batch = distribute_batch
        self.flush_batch = flush_batch
        self.node = node
        self.name = name
        #: Target of an in-flight advancement, or None when idle.
        self._advancing_to: Optional[SCN] = None
        self._last_check = -1.0
        # statistics
        self._obs = obs.current()
        self.advancements = 0
        self.publish_latency_total = 0
        #: Reads 0: publication is one step, nothing holds it back.
        #: Kept bound for the benchmark harness, which reads it by name.
        self.quiesce_wait_retries = 0
        #: Publications postponed by an installed chaos STALL fault.
        self.publish_stalls = 0
        #: Publications postponed by an installed chaos DELAY fault (counted
        #: separately: a delay names its own duration, a stall retries).
        self.publish_delays = 0
        #: Wall time publications spent blocked on chaos stalls or a
        #: blocked worklink drain -- excluded from the *adjusted* latency
        #: metrics.
        self.publish_stall_time_total = 0
        obs.bind(self, {
            "advancements": "adg.coordinator.advancements",
            "publish_latency_total": "adg.coordinator.publish_latency_total",
            "quiesce_wait_retries": "adg.coordinator.quiesce_wait_retries",
            "publish_stalls": "adg.coordinator.publish_stalls",
            "publish_delays": "adg.coordinator.publish_delays",
            "publish_stall_time_total":
                "adg.coordinator.publish_stall_time_total",
        })
        self._publish_latency_hist = obs.histogram(
            "adg.coordinator.publish_latency"
        )
        self._adjusted_latency_hist = obs.histogram(
            "adg.coordinator.publish_latency_adjusted"
        )
        self._advance_started_at = 0.0
        #: When the in-flight publication first got postponed (chaos
        #: stall or blocked worklink drain), or None while unblocked.
        self._stalled_since: Optional[float] = None
        #: Blocked time already accumulated by *closed* episodes of the
        #: in-flight advancement (a worklink drain can block and unblock
        #: several times before publication).
        self._stall_accum = 0.0
        self._chaos = sites.declare("adg.queryscn_publish", owner=self)
        merger.waiters.append(self)

    # ------------------------------------------------------------------
    def consistency_point(self) -> SCN:
        """Highest SCN with every prior change merged, distributed and
        applied on every apply instance."""
        point = _applied_through(self.merger, self.workers)
        for peer in self.peers:
            point = min(point, _applied_through(peer.merger, peer.workers))
        return point

    def _distribute(
        self, merger: LogMerger, distributor: ApplyDistributor
    ) -> float:
        """Hand one apply instance's merged records to its workers."""
        records = merger.take_merged(self.distribute_batch)
        if not records:
            return 0.0
        return COORDINATION_COST + 1e-7 * distributor.distribute(records)

    # ------------------------------------------------------------------
    def step(self, sched: Scheduler) -> Optional[float]:
        # keep the pipelines moving: hand merged records to the workers
        cost = self._distribute(self.merger, self.distributor)
        for peer in self.peers:
            cost += self._distribute(peer.merger, peer.distributor)

        if (
            self._advancing_to is None
            and sched.now >= self._last_check + self.interval
        ):
            self._last_check = sched.now
            cost += COORDINATION_COST
            candidate = self.consistency_point()
            if candidate > self.query_scn.value:
                self._advancing_to = candidate
                self._advance_started_at = sched.now
                self.advance_protocol.begin_advance(candidate)
        if self._advancing_to is not None:
            cost += self._continue_advance(sched)
        if self._advancing_to is None:
            mergers = (self.merger, *(peer.merger for peer in self.peers))
            if not any(merger.pending_merged for merger in mergers):
                # parked until a merger releases redo or the check is due
                self.park = self._last_check + self.interval
        return cost if cost > 0 else None

    # ------------------------------------------------------------------
    def _continue_advance(self, sched: Scheduler) -> float:
        protocol = self.advance_protocol
        flushed = protocol.coordinator_flush(self.flush_batch)
        cost = FLUSH_COST_PER_NODE * max(flushed, 1)
        if flushed < 0:
            # worklink exists but draining is blocked: waiting, not
            # flushing -- the episode is excluded from adjusted latency
            if self._stalled_since is None:
                self._stalled_since = sched.now
        elif self._stalled_since is not None:
            self._stall_accum += sched.now - self._stalled_since
            self._stalled_since = None
        if not protocol.is_advance_complete():
            return cost
        # Invalidation flush done: publish (the quiesce period is this step).
        target = self._advancing_to
        chaos = self._chaos
        if chaos.injectors is not None:
            decision = chaos.consult("publish", target=target)
            if decision.action is sites.Action.STALL:
                # hold the publication; retried on the next step
                self.publish_stalls += 1
                if self._stalled_since is None:
                    self._stalled_since = sched.now
                return cost + COORDINATION_COST
            if decision.action is sites.Action.DELAY:
                # hold the publication for the injected duration: the
                # delay rides on the rescheduling cost so the retry only
                # happens once the delay has elapsed
                self.publish_delays += 1
                if self._stalled_since is None:
                    self._stalled_since = sched.now
                return cost + COORDINATION_COST + max(decision.delay, 0.0)
        self.query_scn.publish(target, at_time=sched.now)
        protocol.finish_advance(target)
        self.advancements += 1
        latency = sched.now - self._advance_started_at
        # time this advancement spent *blocked* (injected stall or blocked
        # worklink drain) rather than flushing and publishing -- keep the
        # raw total intact but track it so the adjusted latency reflects
        # the protocol's own cost (the Fig. 10 quantity).
        stalled = self._stall_accum
        self._stall_accum = 0.0
        if self._stalled_since is not None:
            stalled += sched.now - self._stalled_since
            self._stalled_since = None
        self.publish_latency_total += latency
        self.publish_stall_time_total += stalled
        self._publish_latency_hist.observe(latency)
        self._adjusted_latency_hist.observe(latency - stalled)
        self._advancing_to = None
        return cost + COORDINATION_COST

    # ------------------------------------------------------------------
    def reset_advance(self) -> None:
        """Abandon an in-flight advancement (standby instance restart).

        The restart cleared the flush protocol's commit table and
        worklink, so publishing the pre-restart target would skip every
        invalidation the redo tail re-mines below it -- the coordinator
        must re-derive a fresh consistency point from scratch instead.
        """
        self._advancing_to = None
        self._stalled_since = None
        self._stall_accum = 0.0
        # the pre-restart check timestamp must not defer the first
        # post-restart consistency-point check by a stale interval
        self._last_check = -1.0
        wake((self,))

    @property
    def mean_publish_latency(self) -> float:
        """Mean wall time from advance start to publication, *including*
        any time spent blocked on chaos stalls or a blocked drain."""
        if not self.advancements:
            return 0.0
        return self.publish_latency_total / self.advancements

    @property
    def mean_adjusted_publish_latency(self) -> float:
        """Mean publish latency with blocked wall time (injected stalls,
        blocked drains) excluded: the advancement protocol's own cost."""
        if not self.advancements:
            return 0.0
        return (
            self.publish_latency_total - self.publish_stall_time_total
        ) / self.advancements
