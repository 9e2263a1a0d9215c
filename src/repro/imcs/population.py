"""Population and repopulation of the IMCS.

"Data loading in the IMCS, also known as Population, is typically performed
as a background activity, and does not affect ongoing transactions and
queries" (paper, II-B).  A segment loader chunks each enabled object into
DBA ranges; background population workers build one IMCU per chunk.

Snapshot discipline differs by role and is injected via
``snapshot_capture``:

* on the **primary**, any current SCN is a valid snapshot;
* on the **standby**, the snapshot must be a *published QuerySCN*, never
  one in flux (paper, III-A, the quiesce period).  A publication and a
  capture are each one scheduler step, and a step is atomic, so a capture
  only ever reads a published value.  Before the first publication, or
  while the QuerySCN is below the instance's ``population_floor``, the
  capture returns None and the worker retries on its next step.

Repopulation heuristics (paper, II-B "a set of heuristics"): a unit is
refreshed when (a) the fraction of invalidated rows crosses a threshold, or
(b) covered blocks have grown past the captured row count ("edge" IMCU
churn from inserts -- the effect limiting the update+insert speedup in
Fig. 10), rate-limited per unit.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.config import IMCSConfig
from repro.common.errors import SnapshotTooOldError
from repro.common.ids import DBA, ObjectId
from repro.common.scn import SCN
from repro.imcs.imcu import IMCU
from repro.imcs.smu import SMU
from repro.imcs.store import InMemoryColumnStore, InMemorySegment
from repro.rowstore.cr import TransactionView
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler, wake


@dataclass(slots=True)
class PopulationTask:
    object_id: ObjectId
    dbas: tuple[DBA, ...]
    #: 'populate' for first-time loads / new extents, 'repopulate' for
    #: refreshing a stale unit.
    reason: str = "populate"
    #: Higher-priority objects populate first (Oracle's INMEMORY PRIORITY
    #: CRITICAL/HIGH/.../NONE ladder, collapsed to an integer).
    priority: int = 0


class PopulationEngine:
    """Queues and executes population work for one instance's IMCS."""

    def __init__(
        self,
        store: InMemoryColumnStore,
        txns: TransactionView,
        snapshot_capture: Callable[[], Optional[SCN]],
        config: Optional[IMCSConfig] = None,
        dba_filter: Optional[Callable[[ObjectId, DBA], bool]] = None,
    ) -> None:
        self.store = store
        self.txns = txns
        self.snapshot_capture = snapshot_capture
        self.config = config or IMCSConfig()
        #: RAC home-location filter: this engine only builds IMCUs for
        #: blocks homed on its instance (None = build everything).  The
        #: filter runs *before* chunking, so every chunk is home-pure and
        #: invalidation routing by per-block home always finds the store
        #: that covers the block.
        self.dba_filter = dba_filter
        # priority queue: (-priority, seq) -> FIFO within a priority level
        self._heap: list[tuple[int, int, PopulationTask]] = []
        self._seq = itertools.count()
        self._inflight_dbas: set[DBA] = set()
        #: The population workers, woken by each queued task.
        self.waiters: list = []
        # statistics
        self.populations = 0
        self.repopulations = 0
        self.rows_populated = 0
        #: Of ``rows_populated``, rows a repopulation gathered from the
        #: outgoing unit instead of reading and encoding them.
        self.rows_reused = 0
        self.capacity_skips = 0
        #: Captures that returned no snapshot (no QuerySCN published yet,
        #: or one below the population floor); the name is the benchmark
        #: harness's.
        self.quiesce_retries = 0

    def workers(
        self, prefix: str, node: Optional[CpuNode]
    ) -> list[PopulationWorker]:
        """The engine's worker pool on ``node``, named
        ``<prefix>-popworker-<i>``; worker 0 also sweeps."""
        return [
            PopulationWorker(self, f"{prefix}-popworker-{i}", node, i == 0)
            for i in range(self.config.population_workers)
        ]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _chunk_dbas(self, segment: InMemorySegment, dbas: list[DBA]):
        rows_per_block = segment.partition.segment.rows_per_block
        blocks_per_imcu = max(
            1, self.config.imcu_target_rows // rows_per_block
        )
        for i in range(0, len(dbas), blocks_per_imcu):
            yield tuple(dbas[i : i + blocks_per_imcu])

    def schedule_object(self, object_id: ObjectId) -> int:
        """Create populate tasks for every uncovered DBA of an object.

        Returns the number of tasks enqueued.  Called on enablement and
        periodically to pick up new extents.
        """
        segment = self.store.segment(object_id)
        uncovered = [
            dba
            for dba in segment.partition.segment.dbas
            if dba not in segment.dba_to_unit
            and dba not in self._inflight_dbas
            and (
                self.dba_filter is None
                or self.dba_filter(object_id, dba)
            )
        ]
        count = 0
        for chunk in self._chunk_dbas(segment, uncovered):
            self._enqueue(
                PopulationTask(object_id, chunk, priority=segment.priority)
            )
            self._inflight_dbas.update(chunk)
            count += 1
        return count

    def _enqueue(self, task: PopulationTask) -> None:
        heapq.heappush(
            self._heap, (-task.priority, next(self._seq), task)
        )
        wake(self.waiters)

    def schedule_all(self) -> int:
        return sum(
            self.schedule_object(segment.object_id)
            for segment in self.store.segments()
        )

    def check_repopulation(self, now: float) -> int:
        """Enqueue repopulate tasks for stale units; returns count."""
        count = 0
        for segment in self.store.segments():
            for smu in segment.live_units():
                if smu.repopulating:
                    continue
                if now - smu.last_repopulated_at < self.config.repopulate_min_interval:
                    continue
                if not self._needs_repopulation(segment, smu):
                    continue
                smu.repopulating = True
                smu.last_repopulated_at = now
                self._enqueue(
                    PopulationTask(
                        segment.object_id,
                        tuple(smu.imcu.covered_dbas),
                        reason="repopulate",
                        priority=segment.priority,
                    )
                )
                count += 1
        return count

    def _needs_repopulation(self, segment: InMemorySegment, smu: SMU) -> bool:
        if smu.fully_invalid:
            return True
        if smu.invalid_fraction >= self.config.repopulate_invalid_fraction:
            return True
        # Edge growth: captured blocks that have gained rows since the
        # snapshot force row-store fallback for the overflow rows.
        grown = sum(
            block.used_slots - captured
            for __, block, captured in smu.imcu.edge_blocks(
                segment.partition.segment._store
            )
        )
        if smu.imcu.n_rows == 0:
            return grown > 0
        return grown / smu.imcu.n_rows >= self.config.repopulate_invalid_fraction

    @property
    def backlog(self) -> int:
        return len(self._heap)

    def reset(self) -> None:
        """Drop all queued work (standby instance restart)."""
        self._heap.clear()
        self._inflight_dbas.clear()

    def uncovered_dbas(self) -> int:
        """Blocks of enabled objects with no columnar coverage yet."""
        count = 0
        for segment in self.store.segments():
            for dba in segment.partition.segment.dbas:
                if dba in segment.dba_to_unit:
                    continue
                if self.dba_filter is not None and not self.dba_filter(
                    segment.object_id, dba
                ):
                    continue
                count += 1
        return count

    def fully_populated(self) -> bool:
        """True when every enabled block is covered and no work is queued."""
        return not self._heap and self.uncovered_dbas() == 0

    # ------------------------------------------------------------------
    # execution (driven by PopulationWorker actors)
    # ------------------------------------------------------------------
    def run_one_task(self) -> Optional[float]:
        """Execute one queued task.  Returns simulated cost, or None when
        there is nothing to do / no snapshot can be captured yet."""
        if not self._heap:
            return None
        task = self._heap[0][2]
        segment = self.store._segments.get(task.object_id)
        if segment is None:  # object disabled while queued
            heapq.heappop(self._heap)
            self._inflight_dbas.difference_update(task.dbas)
            return 0.0
        snapshot = self.snapshot_capture()
        if snapshot is None:
            self.quiesce_retries += 1
            return None  # nothing published to capture yet; retry next step
        heapq.heappop(self._heap)
        outgoing = None  # the unit a repopulation replaces
        if task.reason == "repopulate" and task.dbas:
            outgoing = segment.dba_to_unit.get(task.dbas[0])
        try:
            imcu = IMCU.build(
                segment.partition.segment,
                segment.table.schema,
                segment.table.tenant,
                task.dbas,
                snapshot,
                self.txns,
                inmemory_columns=segment.inmemory_columns,
                expressions=list(segment.expressions),
                base=outgoing,
            )
        except SnapshotTooOldError:  # back to the sweeps
            if outgoing is not None:
                outgoing.repopulating = False
            raise
        finally:
            self._inflight_dbas.difference_update(task.dbas)
        cost_per_row = self.config.populate_cost_per_row
        if task.reason == "populate" and not self.store.has_capacity_for(
            imcu.memory_bytes
        ):
            self.capacity_skips += 1
            return cost_per_row * max(imcu.n_rows, 1)
        self.store.register_unit(imcu)
        if task.reason == "repopulate":
            self.repopulations += 1
        else:
            self.populations += 1
        self.rows_populated += imcu.n_rows
        self.rows_reused += imcu.rows_reused
        return cost_per_row * max(imcu.n_rows, 1)


class PopulationWorker(Actor):
    """Background actor executing population tasks.

    Also performs the periodic housekeeping sweeps (new extents, stale
    units) so the engine needs no separate timer actor.
    """

    #: Seconds between housekeeping sweeps.
    SWEEP_INTERVAL = 0.05

    def __init__(
        self,
        engine: PopulationEngine,
        name: str = "popworker",
        node: Optional[CpuNode] = None,
        sweep: bool = False,
    ) -> None:
        self.engine = engine
        self.name = name
        self.node = node
        #: Only one worker per engine should sweep, to avoid double tasks.
        self.sweep = sweep
        self._last_sweep = -1.0
        engine.waiters.append(self)

    def step(self, sched: Scheduler) -> Optional[float]:
        if self.sweep and sched.now >= self._last_sweep + self.SWEEP_INTERVAL:
            self._last_sweep = sched.now
            self.engine.schedule_all()
            self.engine.check_repopulation(sched.now)
        cost = self.engine.run_one_task()
        if not self.engine.backlog:  # a failed capture keeps its task queued
            # an enqueue wakes it; the sweeper also wakes for its sweep
            due = self._last_sweep + self.SWEEP_INTERVAL
            self.park = due if self.sweep else True
        return cost
