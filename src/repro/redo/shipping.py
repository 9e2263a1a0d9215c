"""Redo transport: primary -> standby over a simulated network.

One :class:`LogShipper` actor per primary redo thread tails that thread's
log and sends batches of records to every standby's :class:`RedoReceiver`
with a configurable one-way latency (the paper: "the Primary communicates
with the Standby database over a network protocol like TCP/IP").  Each
receiver buffers per-thread queues that its standby's log merger consumes.

**Gap resolution (FAL).**  Each shipment carries its starting position in
the thread's log.  If the receiver sees a batch start beyond the position
it expected -- redo was lost in transit, or the shipper was bounced past
records -- it has detected an *archive gap* and fetches the missing range
through its ``fal_fetch`` callback (Oracle's Fetch Archive Log service:
the standby pulls the gap from the primary's archived logs).  Without a
FAL source the receiver refuses to skip redo and raises, because applying
past a gap would corrupt the standby.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro import obs
from repro.chaos import sites
from repro.common.ids import InstanceId
from repro.common.scn import NULL_SCN, SCN
from repro.redo.batch import CVBatch
from repro.redo.log import RedoLog
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler, wake


class RedoReceiver:
    """Standby-side landing zone: one inbound queue per redo thread."""

    def __init__(self, fal_fetch=None) -> None:
        #: Per-thread landing queues of CVBatches (FAL-healed redo lands
        #: as batches too).
        self._queues: dict[InstanceId, deque[CVBatch]] = {}
        #: Highest SCN received per thread (for lag measurement).
        self.received_scn: dict[InstanceId, SCN] = {}
        #: Next expected log position per thread (gap detection).
        self._expected_position: dict[InstanceId, int] = {}
        #: Records landed (queued for merge) per thread -- with contiguous
        #: delivery this always equals the expected-position watermark.
        self.records_landed: dict[InstanceId, int] = {}
        #: fal_fetch(thread, lo, hi) -> CVBatch: fetches the record
        #: positions [lo, hi) from the primary's archived logs.
        self.fal_fetch = fal_fetch
        self._obs = obs.current()
        #: Archive gaps detected and FAL-healed.
        self.gaps_resolved = 0
        self.gap_records_fetched = 0
        #: Already-received records discarded on redelivery (duplicated or
        #: reordered shipments; redo application must stay exactly-once).
        self.duplicates_discarded = 0
        #: Whole batches dropped by an installed chaos fault.
        self.batches_dropped = 0
        #: The merger, woken by each landing.
        self.waiters: list = []
        obs.bind(self, {
            "gaps_resolved": "redo.receiver.gaps_resolved",
            "gap_records_fetched": "redo.receiver.gap_records_fetched",
            "duplicates_discarded": "redo.receiver.duplicates_discarded",
            "batches_dropped": "redo.receiver.batches_dropped",
        })
        self._chaos = sites.declare("redo.receive", owner=self)

    def register_thread(self, thread: InstanceId) -> None:
        self._queues.setdefault(thread, deque())
        self.received_scn.setdefault(thread, NULL_SCN)
        self._expected_position.setdefault(thread, 0)
        self.records_landed.setdefault(thread, 0)

    def expected_position(self, thread: InstanceId) -> int:
        """The gap-tracking watermark: next log position expected."""
        return self._expected_position[thread]

    def deliver(
        self,
        batch: CVBatch,
        position: int | None = None,
        thread: InstanceId | None = None,
    ) -> None:
        """Land one shipment.

        ``position`` is the shipment's starting position in its thread's
        log; None disables gap tracking (direct test use).  An empty
        tracked shipment must name its ``thread`` explicitly so gap
        tracking can still advance.  A duplicate prefix is discarded by
        *splitting* the batch at the record boundary.
        """
        count = batch.n_records
        first_thread = batch.thread if count else thread
        chaos = self._chaos
        if chaos.injectors is not None:
            decision = chaos.consult(
                "deliver",
                thread=first_thread,
                position=position,
                count=count,
            )
            if decision.action is sites.Action.DROP:
                self.batches_dropped += 1
                return
        if position is not None:
            if count:
                thread = first_thread
            elif thread is None:
                raise ValueError(
                    "empty tracked shipment: gap tracking needs an "
                    "explicit thread"
                )
            expected = self._expected_position[thread]
            if position > expected:
                # an archive gap -- even a zero-record shipment starting
                # beyond the watermark proves redo was lost in between
                self._resolve_gap(thread, expected, position)
                expected = position
            elif position < expected:
                # redelivery (duplicated or reordered shipment): the
                # prefix up to the watermark already landed -- discard it
                already = min(expected - position, count)
                self.duplicates_discarded += already
                batch = batch.slice_records(already, count)
                count -= already
                position = expected
            self._expected_position[thread] = position + count
            self.records_landed[thread] += count
        if count:
            self._land(batch)

    def _land(self, batch: CVBatch) -> None:
        self._queues[batch.thread].append(batch)
        if batch.last_scn > self.received_scn[batch.thread]:
            self.received_scn[batch.thread] = batch.last_scn
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            for scn, n_cvs in batch.record_cv_counts():
                tracer.record_received(scn, n_cvs)
        wake(self.waiters)

    def _resolve_gap(self, thread: InstanceId, lo: int, hi: int) -> None:
        if self.fal_fetch is None:
            raise RuntimeError(
                f"archive gap on thread {thread}: positions [{lo}, {hi}) "
                "missing and no FAL source configured"
            )
        fetched = self.fal_fetch(thread, lo, hi)
        if fetched.n_records != hi - lo:
            raise RuntimeError(
                f"FAL returned {fetched.n_records} records for gap of "
                f"{hi - lo}"
            )
        if fetched.thread not in self._queues:
            # FAL answered with redo from a thread this receiver has not
            # yet registered (a late-added primary instance whose first
            # shipment is still in flight): land it rather than KeyError
            # -- gap accounting below still charges the thread whose gap
            # triggered the fetch.
            self.register_thread(fetched.thread)
        self._land(fetched)
        self.records_landed[thread] += hi - lo
        self.gaps_resolved += 1
        self.gap_records_fetched += hi - lo

    @property
    def threads(self) -> list[InstanceId]:
        return list(self._queues)

    def queue(self, thread: InstanceId) -> deque:
        return self._queues[thread]

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())


class LogShipper(Actor):
    """Tails one redo thread and ships every batch to its receivers.

    One reader position is shared by all destinations, so every standby
    sees identical batch boundaries, but delivery is per destination: the
    chaos context carries ``dest=<name>``, so a fault can drop or delay
    one standby's copy and only that standby FAL-heals the resulting gap.
    Removing a destination (standby loss) simply stops shipping to it.

    Shipping cost is charged to the primary node (redo transport service)
    once per copy; delivery happens ``latency`` simulated seconds later.
    """

    #: Simulated CPU seconds per shipped record (marshalling overhead).
    COST_PER_RECORD = 2e-6
    #: Most records per shipment.
    BATCH = 256

    def __init__(
        self,
        log: RedoLog,
        receivers: dict[str, RedoReceiver],
        latency: float = 0.002,
        node: Optional[CpuNode] = None,
        name: Optional[str] = None,
    ) -> None:
        self._log = log
        #: Next log record position to ship.
        self._position = 0
        self.thread = log.thread
        self._receivers: dict[str, RedoReceiver] = {}
        self.latency = latency
        self.node = node
        self.name = name or f"shipper-t{log.thread}"
        self._obs = obs.current()
        #: Records lost in transit by an installed chaos fault.
        self.records_dropped = 0
        obs.bind(
            self, {"records_dropped": "redo.shipper.records_dropped"},
            thread=log.thread,
        )
        self._chaos = sites.declare("redo.ship", owner=self)
        for dest, receiver in receivers.items():
            self.add_destination(dest, receiver)
        log.waiters.append(self)

    @property
    def shipped_through(self) -> int:
        return self._position

    def add_destination(self, name: str, receiver: RedoReceiver) -> None:
        if name in self._receivers:
            raise ValueError(f"duplicate shipping destination {name!r}")
        receiver.register_thread(self.thread)
        self._receivers[name] = receiver

    def remove_destination(self, name: str) -> None:
        """Stop shipping to a standby (loss/dismount)."""
        self._receivers.pop(name, None)

    def step(self, sched: Scheduler) -> Optional[float]:
        position = self._position
        end = min(position + self.BATCH, len(self._log))
        if end == len(self._log):
            self.park = True  # until the log's next append
        if end == position:
            return None
        count = end - position
        self._position = end
        # sliced once per shipment and shared by every copy; the arrays
        # are immutable in flight
        payload = self._log.batch(position, end)
        # stamped once per record, as it leaves the log: with several
        # copies in flight no single copy's fate can un-ship a record
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            for scn, n_cvs in payload.record_cv_counts():
                tracer.record_shipped(scn, n_cvs)
        chaos = self._chaos
        for dest, receiver in self._receivers.items():
            latency = self.latency
            if chaos.injectors is not None:
                decision = chaos.consult(
                    "ship",
                    thread=self.thread,
                    position=position,
                    count=count,
                    dest=dest,
                )
                if decision.action is sites.Action.DROP:
                    # this copy is lost in transit: the reader advanced,
                    # creating an archive gap its receiver will FAL-heal
                    self.records_dropped += count
                    continue
                if decision.action is sites.Action.DELAY:
                    latency += decision.delay
                elif decision.action is sites.Action.DUPLICATE:
                    sched.call_after(
                        latency + self.latency,
                        lambda r=receiver: r.deliver(payload, position),
                    )
            sched.call_after(
                latency, lambda r=receiver: r.deliver(payload, position)
            )
        return self.COST_PER_RECORD * count * max(1, len(self._receivers))
