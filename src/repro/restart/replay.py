"""Instant restart: checkpoint restore + dependency-bounded tail replay.

A cold standby restart (paper, III-E) pays twice: every pre-restart commit
re-mined without its 'begin' coarse-invalidates the tenant, and the whole
IMCS repopulates from the row store.  With population checkpoints
(:mod:`repro.restart.checkpoint`) the restart path becomes:

1. abandon any in-flight QuerySCN advancement and clear the volatile
   DBIM-on-ADG structures exactly as a cold restart would;
2. reinstall each checkpointed object's IMCUs -- the very units the
   checkpoint captured -- and seed their SMUs from the captured masks
   (:meth:`~repro.imcs.store.InMemoryColumnStore.restore_unit`);
3. re-mine the **redo tail** -- every already-applied CV with SCN in
   ``[min tail_start over restored objects, max applied SCN]`` that is not
   still queued for apply -- with the miner in ``tail_mode``: a re-mined
   commit whose begin lies below the floor is *provably* covered by the
   checkpointed masks (see the floor derivation in the checkpoint module),
   so it is skipped instead of coarse-invalidating;
4. force one flush advancement to the published QuerySCN so re-mined
   commits at or below it land in the restored masks before any query
   runs; re-mined DDL at or below it re-drops affected units.

Re-mining is idempotent by monotonicity: a record double-mined against a
restored mask only re-marks rows already invalid.  CVs still sitting in
the apply queues are excluded from the tail (by ``(thread, log CV
offset)`` against the queue contents) because the workers will mine them
at apply time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.common.config import RestartConfig
from repro.common.scn import SCN
from repro.redo.batch import CVBatch, CVChunk
from repro.restart.checkpoint import CheckpointStore

if TYPE_CHECKING:
    from repro.db.standby import StandbyDatabase

#: (lo_scn, hi_scn) -> every redo record with lo <= scn <= hi, one batch
#: per redo thread.
RedoTailFetch = Callable[[SCN, SCN], list[CVBatch]]

#: Bounded forced-flush drain; beyond this the restored units are coarse-
#: invalidated rather than risking an unbounded restart (chaos stalls).
MAX_FLUSH_ROUNDS = 100_000


@dataclass(slots=True)
class RestartReport:
    """What one restart did, with modeled costs for the benchmark."""

    mode: str = "cold"
    objects_restored: int = 0
    units_restored: int = 0
    rows_restored: int = 0
    tail_start_scn: SCN = 0
    tail_end_scn: SCN = 0
    cvs_remined: int = 0
    cvs_skipped_queued: int = 0
    flush_rounds: int = 0
    coarse_fallback: bool = False
    #: Modeled simulated seconds (restart runs synchronously between
    #: scheduler steps, so its cost is reported rather than scheduled).
    restore_seconds: float = 0.0
    remine_seconds: float = 0.0

    @property
    def modeled_seconds(self) -> float:
        return self.restore_seconds + self.remine_seconds


def restore_checkpoints(
    standby: "StandbyDatabase", store: CheckpointStore, report: RestartReport
) -> SCN:
    """Reinstall the warm units of every checkpointed object.

    Returns the tail-replay floor: the minimum ``tail_start_scn`` over the
    restored checkpoints (0 when nothing was restored).  The store is
    consumed -- checkpoints are only valid within the incarnation that
    captured them.
    """
    floor: SCN = 0
    for object_id in sorted(standby.imcs.enabled_object_ids):
        checkpoint = store.latest(object_id)
        if checkpoint is None:
            continue
        for unit in checkpoint.units:
            standby.imcs.restore_unit(
                unit.imcu,
                unit.invalid_rows,
                unit.invalid_blocks,
                unit.fully_invalid,
                unit.last_invalidation_scn,
            )
            report.units_restored += 1
            report.rows_restored += unit.imcu.n_rows
        report.objects_restored += 1
        if floor == 0 or checkpoint.tail_start_scn < floor:
            floor = checkpoint.tail_start_scn
    store.clear()
    return floor


def replay_tail(
    standby: "StandbyDatabase",
    fetch: RedoTailFetch,
    floor: SCN,
    report: RestartReport,
) -> None:
    """Re-mine the already-applied redo tail into the fresh journal.

    The tail is ``[floor, max worker applied SCN]``, mined through the
    same ``sniff_chunk`` pass as live apply; CVs still queued for apply
    are excluded by log position (their mining happens at apply time,
    exactly once).  Mining runs with the miner in ``tail_mode`` so
    missing-begin commits -- whose invalidations the checkpointed masks
    provably cover -- are skipped instead of coarse-invalidating.
    """
    tail_end = max(
        (worker.applied_scn for worker in standby.workers), default=0
    )
    report.tail_start_scn = floor
    report.tail_end_scn = tail_end
    if floor == 0 or tail_end < floor:
        return
    queued: dict[int, list[np.ndarray]] = {}
    for thread, positions in standby.distributor.queued_positions():
        queued.setdefault(thread, []).append(positions)
    miner = standby.miner
    miner.tail_mode = True
    try:
        for batch in fetch(floor, tail_end):
            unqueued = np.arange(batch.n_cvs, dtype=np.int64)
            if batch.thread in queued:
                unqueued = unqueued[
                    ~np.isin(
                        unqueued + batch.cv_base,
                        np.concatenate(queued[batch.thread]),
                    )
                ]
            report.cvs_skipped_queued += batch.n_cvs - unqueued.size
            if not unqueued.size:
                continue
            miner.sniff_chunk(CVChunk(batch, unqueued), 0)
            report.cvs_remined += unqueued.size
    finally:
        miner.tail_mode = False


def force_flush(standby: "StandbyDatabase", report: RestartReport) -> None:
    """Drain re-mined invalidations at or below the published QuerySCN.

    Queries resume at the surviving published QuerySCN immediately after
    restart, so every re-mined commit it covers must reach the restored
    masks first -- the same pre-publication discipline the advancement
    protocol enforces, run synchronously here.  A drain that cannot make
    progress (chaos stall held across the restart) falls back to coarse
    invalidation of the restored tenants: correctness over warmth.
    """
    target = standby.query_scn.value
    if target == 0:
        return
    flush = standby.flush
    flush.begin_advance(target)
    rounds = 0
    stalled_rounds = 0
    while not flush.is_advance_complete():
        rounds += 1
        flushed = flush.coordinator_flush(64)
        if flushed < 0:
            stalled_rounds += 1
        else:
            stalled_rounds = 0
        if rounds >= MAX_FLUSH_ROUNDS or stalled_rounds >= 1_000:
            report.coarse_fallback = True
            for segment in list(standby.imcs.segments()):
                standby.imcs.invalidate_tenant(segment.tenant, target)
            break
    flush.finish_advance(target)
    report.flush_rounds = rounds


def instant_restart(
    standby: "StandbyDatabase",
    store: CheckpointStore,
    fetch: RedoTailFetch,
    config: RestartConfig,
) -> RestartReport:
    """Run the warm restart path; the caller has already cleared the
    volatile DBIM-on-ADG state (journal, commit table, DDL table, flush,
    units) and reset the coordinator's in-flight advancement."""
    report = RestartReport(mode="instant")
    floor = restore_checkpoints(standby, store, report)
    if report.units_restored == 0:
        report.mode = "cold"
        return report
    replay_tail(standby, fetch, floor, report)
    force_flush(standby, report)
    report.restore_seconds = (
        config.restore_cost_per_row * report.rows_restored
    )
    report.remine_seconds = config.remine_cost_per_cv * report.cvs_remined
    return report
