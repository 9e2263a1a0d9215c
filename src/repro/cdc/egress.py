"""The CDC egress: a snapshot-equivalent change feed off the standby.

The egress turns the DBIM-on-ADG machinery the standby already runs into
a streaming source, without touching the primary:

* it registers as an :class:`~repro.dbim_adg.flush.InvalidationListener`
  and tails the mined invalidation stream -- every flushed group hands
  it the exact (object, block, slots) addresses a committed transaction
  touched, strictly *before* the covering QuerySCN publishes;
* it subscribes to the :class:`~repro.adg.queryscn.QuerySCNPublisher`:
  at each publication S (inside the quiesce window, so population and
  later publications are excluded) it resolves the accumulated addresses
  through Consistent Read at S -- a visible row image becomes an UPSERT,
  a tombstone/absent slot a DELETE.  Every publication is therefore a
  **certified cut**: the feed's events at S are exactly the rows visible
  at S.

Because mining only journals IMCS-enabled objects, the feed covers
in-memory-enabled tables -- :meth:`CDCEgress.capture` enforces that.

Delivery is asynchronous: events queue per subscriber and the
:class:`CDCPump` actor drains them with simulated cost (the ``cdc.emit``
chaos site injects subscriber lag).  Mid-stream attachment uses the
DBLog-style chunked backfill in :mod:`repro.cdc.backfill`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.chaos import sites
from repro.common.errors import NotInMemoryError
from repro.common.ids import DBA, ObjectId, RowId, TenantId
from repro.common.scn import SCN
from repro.cdc.backfill import BackfillEngine, BackfillState
from repro.cdc.events import (
    BACKFILL,
    DELETE,
    DROP,
    RESYNC,
    UPSERT,
    ChangeEvent,
)
from repro.dbim_adg.flush import InvalidationGroup, InvalidationListener
from repro.rowstore.cr import visible_values
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.standby import StandbyDatabase


class Subscription:
    """One subscriber's FIFO of undelivered events."""

    def __init__(self, name: str, target) -> None:
        self.name = name
        self.target = target
        #: (event, enqueued_at) pairs awaiting delivery.
        self.queue: deque[tuple[ChangeEvent, float]] = deque()
        #: Chaos DELAY holds delivery until this simulated time.
        self.resume_at = 0.0
        self.delivered = 0
        self._lag_series = obs.series("cdc.subscriber_lag", subscriber=name)

    @property
    def depth(self) -> int:
        return len(self.queue)


class CDCEgress(InvalidationListener):
    """Tails the invalidation stream; emits a certified change feed."""

    def __init__(
        self, standby: "StandbyDatabase", sched: Scheduler
    ) -> None:
        self.standby = standby
        self.sched = sched
        #: object id -> table name for every captured object (the name
        #: survives a DROP so the drop event can still be addressed).
        self._captured: dict[ObjectId, str] = {}
        #: Addresses touched since the last certified cut:
        #: object -> {dba -> slot set, or None for the whole block}.
        self._pending: dict[ObjectId, dict[DBA, Optional[set[int]]]] = {}
        #: Objects needing a full resync at the next cut (DDL, coarse).
        self._pending_resync: "OrderedDict[ObjectId, None]" = OrderedDict()
        self._subscriptions: list[Subscription] = []
        #: object id -> BackfillState, processed head-first.
        self._backfills: "OrderedDict[ObjectId, BackfillState]" = (
            OrderedDict()
        )
        self.backfill_engine = BackfillEngine(self)
        self.emitted = 0
        self.resolved = 0
        self.resyncs = 0
        self.backfill_rows = 0
        self.backfill_deduped = 0
        self.backfill_chunks = 0
        #: Deepest subscriber queue after the last enqueue or delivery.
        self.queue_depth = 0
        obs.bind(self, {
            "emitted": "cdc.emitted",
            "resolved": "cdc.resolved",
            "resyncs": "cdc.resyncs",
            "backfill_rows": "cdc.backfill_rows",
            "backfill_deduped": "cdc.backfill_deduped",
            "backfill_chunks": "cdc.backfill_chunks",
        })
        obs.bind(self, {"queue_depth": "cdc.queue_depth"}, "gauge")
        self._cut_window = obs.histogram("cdc.cut_window")
        self._lag_hist = obs.histogram("cdc.subscriber_lag")
        standby.flush.add_invalidation_listener(self)
        standby.query_scn.subscribe(self._on_publish)

    # ------------------------------------------------------------------
    # capture management
    # ------------------------------------------------------------------
    def capture(self, table_name: str, backfill: bool = True) -> list[int]:
        """Start capturing a table's changes (and, by default, backfill
        its existing rows).  The table must be IMCS-enabled on this
        standby: mining only journals invalidations for enabled objects,
        so a non-enabled table would silently produce an empty feed."""
        table = self.standby.catalog.table(table_name)
        object_ids = list(table.object_ids)
        for oid in object_ids:
            if not self.standby.imcs.is_enabled(oid):
                raise NotInMemoryError(
                    f"CDC capture requires {table_name!r} to be in-memory "
                    f"enabled on the standby (object {oid})"
                )
        for oid in object_ids:
            self._captured[oid] = table_name
            if backfill:
                self._backfills[oid] = BackfillState(oid, table_name)
        return object_ids

    def subscribe(self, target, name: Optional[str] = None) -> Subscription:
        """Attach a subscriber (anything with ``on_event(event)``)."""
        sub = Subscription(
            name or f"subscriber-{len(self._subscriptions)}", target
        )
        self._subscriptions.append(sub)
        return sub

    @property
    def drained(self) -> bool:
        """No unresolved addresses, queued events or running backfills."""
        return (
            not self._pending
            and not self._pending_resync
            and not self._backfills
            and all(not sub.queue for sub in self._subscriptions)
        )

    # ------------------------------------------------------------------
    # InvalidationListener (fires during worklink drain, pre-publication)
    # ------------------------------------------------------------------
    def on_group_flushed(self, group: InvalidationGroup) -> None:
        if group.object_id not in self._captured:
            return
        pending = self._pending.setdefault(group.object_id, {})
        for dba, slots in group.blocks.items():
            if slots == ():
                pending[dba] = None  # whole block
            else:
                existing = pending.get(dba, set())
                if existing is not None:
                    existing.update(slots)
                    pending[dba] = existing

    def on_object_dropped(self, object_id: ObjectId, scn: SCN) -> None:
        if object_id in self._captured:
            self._pending_resync[object_id] = None

    def on_coarse_invalidation(self, tenant: TenantId, scn: SCN) -> None:
        # coarse = "everything below scn may be stale": resync the world
        for oid in self._captured:
            self._pending_resync[oid] = None

    # ------------------------------------------------------------------
    # the certified cut: resolve pending addresses at each publication
    # ------------------------------------------------------------------
    def _on_publish(self, scn: SCN) -> None:
        if not self._pending and not self._pending_resync:
            return
        now = self.sched.now
        events: list[ChangeEvent] = []
        catalog = self.standby.catalog
        # table-level events first: a resync resets downstream state
        # before this cut's row images (if any) land on other tables
        resyncs, self._pending_resync = self._pending_resync, OrderedDict()
        for oid in resyncs:
            name = self._captured.get(oid)
            if name is None:
                continue
            self._pending.pop(oid, None)  # superseded by the resync
            if not catalog.has_object(oid):
                # DDL dropped the object pre-publication (III-D order):
                # end the capture with a DROP event
                events.append(ChangeEvent(DROP, name, oid, scn))
                del self._captured[oid]
                self._backfills.pop(oid, None)
            else:
                events.append(ChangeEvent(RESYNC, name, oid, scn))
                # re-emit the object from scratch (DDL mid-cut restarts
                # the chunk walk; TRUNCATE re-certifies emptiness)
                state = self._backfills.get(oid)
                if state is None:
                    self._backfills[oid] = BackfillState(oid, name)
                else:
                    state.restart()
            self.resyncs += 1
        pending, self._pending = self._pending, {}
        for oid, blocks in pending.items():
            name = self._captured.get(oid)
            if name is None or not catalog.has_object(oid):
                continue
            table = catalog.table_for_object(oid)
            for dba in sorted(blocks):
                slots = blocks[dba]
                try:
                    block = table._block_for(dba)
                except KeyError:
                    continue
                if slots is None:
                    slot_list = range(block.used_slots)
                else:
                    slot_list = sorted(
                        s for s in slots if s < block.used_slots
                    )
                for slot in slot_list:
                    values = visible_values(
                        block, slot, scn, self.standby.txn_table
                    )
                    rowid = RowId(dba, slot)
                    if values is None:
                        events.append(
                            ChangeEvent(DELETE, name, oid, scn, rowid)
                        )
                    else:
                        events.append(
                            ChangeEvent(
                                UPSERT, name, oid, scn, rowid, values
                            )
                        )
                    self.resolved += 1
        # open watermark windows record this cut's touched rowids
        for event in events:
            if event.rowid is None:
                continue
            state = self._backfills.get(event.object_id)
            if state is not None and state.window_lw is not None:
                state.touched.add(event.rowid)
        self._enqueue(events, now)

    # ------------------------------------------------------------------
    def _emit_backfill_row(
        self,
        state: BackfillState,
        rowid: RowId,
        values: tuple,
        hw: SCN,
        at_time: float,
    ) -> None:
        self.backfill_rows += 1
        self._enqueue(
            [
                ChangeEvent(
                    UPSERT,
                    state.table_name,
                    state.object_id,
                    hw,
                    rowid,
                    values,
                    source=BACKFILL,
                )
            ],
            at_time,
        )

    def _enqueue(self, events: list[ChangeEvent], now: float) -> None:
        if not events:
            return
        for sub in self._subscriptions:
            for event in events:
                sub.queue.append((event, now))
        self.queue_depth = max(
            (sub.depth for sub in self._subscriptions), default=0
        )


class CDCPump(Actor):
    """Delivers queued events to subscribers and drives backfills.

    One actor per egress: each step advances the head backfill's chunk
    window and drains up to ``BATCH`` events per subscriber, charging
    simulated cost per event.  The ``cdc.emit`` chaos site injects
    subscriber lag (STALL skips a round, DELAY parks one subscriber).
    """

    #: Simulated CPU seconds per delivered event.
    COST_PER_EVENT = 5e-7
    #: Events delivered per subscriber per step.
    BATCH = 64

    def __init__(
        self,
        egress: CDCEgress,
        node: Optional[CpuNode] = None,
        name: str = "cdc-pump",
    ) -> None:
        self.egress = egress
        self.node = node
        self.name = name
        self._chaos = sites.declare("cdc.emit", owner=self)

    def step(self, sched: Scheduler) -> Optional[float]:
        cost = self.egress.backfill_engine.step(sched.now)
        now = sched.now
        for sub in self.egress._subscriptions:
            if not sub.queue or now < sub.resume_at:
                continue
            if self._chaos.injectors is not None:
                decision = self._chaos.consult(
                    "deliver", subscriber=sub.name, depth=sub.depth
                )
                if decision.action is sites.Action.STALL:
                    continue
                if decision.action is sites.Action.DELAY:
                    sub.resume_at = now + decision.delay
                    continue
            delivered = 0
            while sub.queue and delivered < self.BATCH:
                event, enqueued_at = sub.queue.popleft()
                lag = now - enqueued_at
                self.egress._lag_hist.observe(lag)
                sub._lag_series.record(now, lag)
                sub.target.on_event(event)
                sub.delivered += 1
                delivered += 1
            self.egress.emitted += delivered
            cost += self.COST_PER_EVENT * delivered
        self.egress.queue_depth = max(
            (s.depth for s in self.egress._subscriptions), default=0
        )
        return cost if cost > 0 else None


__all__ = ["CDCEgress", "CDCPump", "Subscription"]
