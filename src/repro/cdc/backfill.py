"""DBLog-style chunked backfill with watermark windows (virtual cuts).

A subscriber that attaches mid-stream needs the rows that existed before
the live feed started.  DBLog ("DBLog: A Watermark Based Change-Data-
Capture Framework", Andreou et al.) interleaves chunked full selects
with the live log by bracketing every chunk in a low/high watermark
window:

1. **open** the window: remember the current published QuerySCN as the
   low watermark and start recording which rowids the live path touches;
2. let the live feed run (the window stays open for a simulated hold
   interval -- publications land, live events accumulate);
3. **close** the window: the published QuerySCN *now* is the high
   watermark; select the next chunk of blocks at exactly that SCN via
   Consistent Read, and drop any selected row whose rowid saw a live
   event inside the window -- the live event already carries that row's
   state at an equal-or-newer certified cut, so the chunk row would be a
   stale duplicate.

Because the select is pinned to the high watermark (a *published*
QuerySCN, i.e. a certified cut), every surviving chunk row is exactly
the row's image at that cut -- replaying backfill rows and live events
in feed order reconstructs the table byte-for-byte.

Chunks are physical: a fixed number of data blocks per window, walked in
segment order (the analogue of DBLog's PK-range chunks).  Blocks that
materialise later (tail inserts) are covered by the live path, which is
why backfill requires live capture to already be running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.chaos import sites
from repro.common.ids import DBA, ObjectId, RowId
from repro.common.scn import SCN
from repro.rowstore.cr import visible_values

if TYPE_CHECKING:  # pragma: no cover
    from repro.cdc.egress import CDCEgress


@dataclass(slots=True)
class BackfillState:
    """Progress of one object's (partition's) chunked backfill."""

    object_id: ObjectId
    table_name: str
    #: Blocks already selected (chunks are block-granular).
    done_dbas: set[DBA] = field(default_factory=set)
    #: Low watermark of the open window, or None when no window is open.
    window_lw: Optional[SCN] = None
    #: Simulated time at which the open window may close.
    window_close_at: float = 0.0
    #: Rowids the live path touched while the window was open.
    touched: set[RowId] = field(default_factory=set)
    chunks_done: int = 0

    def restart(self) -> None:
        """DDL mid-cut: abandon the current window and start over."""
        self.done_dbas.clear()
        self.window_lw = None
        self.touched = set()


class BackfillEngine:
    """Drives the egress's pending backfills, one chunk window at a time.

    Owned by :class:`~repro.cdc.egress.CDCEgress`; stepped by the
    :class:`~repro.cdc.egress.CDCPump` actor.  Only the head backfill
    makes progress per step (DBLog processes one chunk at a time), so
    concurrent backfills queue behind each other.
    """

    #: Simulated seconds a watermark window stays open before the chunk
    #: select runs -- the interleave that lets live events certify cuts.
    window_hold = 0.02
    #: Data blocks selected per chunk window.
    chunk_blocks = 4
    #: Simulated CPU seconds per row visited by a chunk select.
    select_cost_per_row = 1e-6

    def __init__(self, egress: "CDCEgress") -> None:
        self.egress = egress
        self._chaos = sites.declare("cdc.backfill", owner=self)

    # ------------------------------------------------------------------
    def step(self, now: float) -> float:
        """Advance the head backfill; returns simulated cost."""
        egress = self.egress
        while egress._backfills:
            oid = next(iter(egress._backfills))
            if oid in egress._captured:
                break
            del egress._backfills[oid]  # table dropped mid-backfill
        else:
            return 0.0
        state = egress._backfills[oid]
        if state.window_lw is None:
            return self._open_window(state, now)
        if now < state.window_close_at:
            return 0.0  # window interleaving with the live feed
        return self._close_window(state, now)

    # ------------------------------------------------------------------
    def _open_window(self, state: BackfillState, now: float) -> float:
        if self._chaos.injectors is not None:
            decision = self._chaos.consult(
                "open", object=state.object_id, chunk=state.chunks_done
            )
            if decision.action is sites.Action.STALL:
                return 1e-6  # retried next step
            extra = (
                decision.delay
                if decision.action is sites.Action.DELAY else 0.0
            )
        else:
            extra = 0.0
        state.window_lw = self.egress.standby.query_scn.value
        state.touched = set()
        state.window_close_at = now + self.window_hold + extra
        return 1e-6

    # ------------------------------------------------------------------
    def _close_window(self, state: BackfillState, now: float) -> float:
        egress = self.egress
        if self._chaos.injectors is not None:
            decision = self._chaos.consult(
                "close", object=state.object_id, chunk=state.chunks_done
            )
            if decision.action is sites.Action.STALL:
                # chunk select held back: the window simply stays open,
                # accumulating more live-touched rowids
                state.window_close_at = now + self.window_hold
                return 1e-6
            if decision.action is sites.Action.DELAY:
                state.window_close_at = now + decision.delay
                return 1e-6
        standby = egress.standby
        hw = standby.query_scn.value
        table = standby.catalog.table_for_object(state.object_id)
        part = table.partition_by_object_id(state.object_id)
        rows_seen = 0
        blocks_done = 0
        exhausted = True
        for block in part.segment.blocks():
            if block.dba in state.done_dbas:
                continue
            if blocks_done >= self.chunk_blocks:
                exhausted = False
                break
            for slot in range(block.used_slots):
                rows_seen += 1
                values = visible_values(block, slot, hw, standby.txn_table)
                if values is None:
                    continue
                rowid = RowId(block.dba, slot)
                if rowid in state.touched:
                    # live wins: this row's state at an >= cut is already
                    # in the feed -- emitting the chunk row would be a
                    # stale duplicate (the DBLog de-dup rule)
                    egress.backfill_deduped += 1
                    continue
                egress._emit_backfill_row(
                    state, rowid, values, hw, at_time=now
                )
            state.done_dbas.add(block.dba)
            blocks_done += 1
        assert state.window_lw is not None
        egress._cut_window.observe(float(hw - state.window_lw))
        egress.backfill_chunks += 1
        state.chunks_done += 1
        state.window_lw = None
        state.touched = set()
        if exhausted:
            del egress._backfills[state.object_id]
        return 2e-6 + self.select_cost_per_row * rows_seen


__all__ = ["BackfillState", "BackfillEngine"]
