"""Population checkpoints for instant standby restart.

The IMCS "has no persistent footprint other than the underlying row-store
objects" (paper, III-E), so a standby bounce forfeits every IMCU and the
restart protocol falls back to coarse invalidation plus full repopulation.
This module removes the repopulation from the restart path: at published
QuerySCNs a background writer keeps a reference to each live IMCU -- an
IMCU never changes once built (II-B), so the reference *is* the unit as of
capture -- together with a *copy* of its SMU validity mask, one checkpoint
per object.

Every :class:`ObjectCheckpoint` additionally records the **redo-tail
floor** valid at its capture instant::

    tail_start = min(QuerySCN + 1, min over live journal anchors of
                     the anchor's first mined CV SCN)

Capture is one scheduler step after a publication, so every CV with
SCN <= QuerySCN has been applied and mined before capture.  A
transaction not yet flushed at capture therefore has a live anchor whose
``first_scn`` bounds all of its redo from below; re-mining everything from
``tail_start`` at restart (see :mod:`repro.restart.replay`) provably
recreates all journal/commit-table state the bounce destroyed.

Checkpoints are only sound for restarts within the same instance
incarnation: a restart clears the journal, breaking the anchor-liveness
argument above, so the store is cleared whenever the instance restarts
(the instant path consumes its checkpoint first) and whenever a coarse
invalidation or DDL drop supersedes the captured masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import obs
from repro.chaos import sites
from repro.common.ids import DBA, ObjectId, TenantId
from repro.common.scn import SCN
from repro.dbim_adg.flush import InvalidationListener
from repro.imcs.imcu import IMCU
from repro.imcs.smu import SMU
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler

if TYPE_CHECKING:
    from repro.db.standby import StandbyDatabase

#: Simulated CPU seconds to checkpoint one row (mask copy + bookkeeping;
#: the unit is referenced, not copied).
CHECKPOINT_COST_PER_ROW = 5e-8


@dataclass(slots=True)
class UnitCheckpoint:
    """One live IMCU and a copy of its SMU's validity at capture."""

    imcu: IMCU
    invalid_rows: np.ndarray
    invalid_blocks: frozenset[DBA]
    fully_invalid: bool
    last_invalidation_scn: SCN

    @classmethod
    def capture(cls, smu: SMU) -> "UnitCheckpoint":
        return cls(smu.imcu, *smu.snapshot_validity())


@dataclass(slots=True)
class ObjectCheckpoint:
    """All of one object's units, captured at one published QuerySCN."""

    object_id: ObjectId
    tenant: TenantId
    #: The published QuerySCN the SMU masks are consistent with: every
    #: commit with commitSCN <= query_scn is reflected in the masks.
    query_scn: SCN
    #: Redo-tail replay floor valid at capture (see module docstring).
    tail_start_scn: SCN
    units: list[UnitCheckpoint] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return sum(unit.imcu.n_rows for unit in self.units)


class CheckpointStore(InvalidationListener):
    """The latest checkpoint of each object.

    Installed as an invalidation listener on the flush component:
    a coarse (tenant-wide) invalidation or a DDL drop means the captured
    masks no longer cover reality, so the affected checkpoints are
    discarded rather than risk restoring stale data.
    """

    def __init__(self) -> None:
        self._by_object: dict[ObjectId, ObjectCheckpoint] = {}
        self.captures = 0
        self.discards = 0

    def put(self, checkpoint: ObjectCheckpoint) -> None:
        self._by_object[checkpoint.object_id] = checkpoint
        self.captures += 1

    def latest(self, object_id: ObjectId) -> Optional[ObjectCheckpoint]:
        return self._by_object.get(object_id)

    def drop_object(self, object_id: ObjectId) -> None:
        if self._by_object.pop(object_id, None) is not None:
            self.discards += 1

    def drop_tenant(self, tenant: TenantId) -> None:
        stale = [
            object_id
            for object_id, checkpoint in self._by_object.items()
            if checkpoint.tenant == tenant
        ]
        for object_id in stale:
            self.drop_object(object_id)

    def clear(self) -> None:
        self._by_object.clear()

    # ------------------------------------------------------------------
    # InvalidationListener (fired during flush, pre-publication)
    # ------------------------------------------------------------------
    def on_coarse_invalidation(self, tenant: TenantId, scn: SCN) -> None:
        # The per-row detail the masks rely on is gone for this tenant.
        self.drop_tenant(tenant)

    def on_object_dropped(self, object_id: ObjectId, scn: SCN) -> None:
        # DDL changed the object's definition; the captured units are
        # of the old shape.
        self.drop_object(object_id)


class CheckpointWriter(Actor):
    """Background actor snapshotting one object per step.

    After each interval with a newer published QuerySCN than the last
    capture round, the writer walks the enabled objects round-robin, one
    object per step, capturing its live units within that step (so the
    masks stay consistent with the published QuerySCN and the journal
    floor read is race-free).
    """

    def __init__(
        self,
        standby: "StandbyDatabase",
        store: CheckpointStore,
        interval: float = 0.2,
        name: str = "checkpoint-writer",
        node: Optional[CpuNode] = None,
    ) -> None:
        self.standby = standby
        self.store = store
        self.interval = interval
        self.name = name
        self.node = node
        self._pending: list[ObjectId] = []
        self._round_scn: SCN = 0
        self._last_round = -1.0
        self.captures = 0
        self.chaos_skips = 0
        obs.bind(self, {
            "captures": "restart.checkpoint.captures",
            "chaos_skips": "restart.checkpoint.chaos_skips",
        })
        self._chaos = sites.declare("restart.checkpoint", owner=self)

    def step(self, sched: Scheduler) -> Optional[float]:
        if not self._pending:
            if sched.now - self._last_round < self.interval:
                return None
            published = self.standby.query_scn.value
            if published == 0 or published == self._round_scn:
                return None
            self._last_round = sched.now
            self._round_scn = published
            self._pending = sorted(self.standby.imcs.enabled_object_ids)
            if not self._pending:
                return None
        object_id = self._pending.pop()
        return self._capture_object(object_id)

    def _capture_object(self, object_id: ObjectId) -> Optional[float]:
        chaos = self._chaos
        if chaos.injectors is not None:
            decision = chaos.consult("capture", object=object_id)
            if decision.action in (sites.Action.STALL, sites.Action.DELAY):
                # hold the capture; this object is simply skipped this round
                self.chaos_skips += 1
                return CHECKPOINT_COST_PER_ROW
            if decision.action is sites.Action.DROP:
                self.chaos_skips += 1
                return CHECKPOINT_COST_PER_ROW
        standby = self.standby
        if not standby.imcs.is_enabled(object_id):
            return None  # disabled while queued
        query_scn = standby.query_scn.value
        if query_scn == 0:
            return None
        floor = standby.journal.min_first_scn()
        tail_start = (
            query_scn + 1 if floor == 0 else min(query_scn + 1, floor)
        )
        segment = standby.imcs.segment(object_id)
        units = [
            UnitCheckpoint.capture(smu)
            for smu in segment.live_units()
            if not smu.fully_invalid
        ]
        if not units:
            return None
        checkpoint = ObjectCheckpoint(
            object_id=object_id,
            tenant=segment.tenant,
            query_scn=query_scn,
            tail_start_scn=tail_start,
            units=units,
        )
        self.store.put(checkpoint)
        self.captures += 1
        return CHECKPOINT_COST_PER_ROW * max(checkpoint.n_rows, 1)

