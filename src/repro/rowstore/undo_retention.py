"""Undo retention: bounding version-chain growth.

Every update appends a version to its block; without pruning, hot rows
grow unbounded chains.  Oracle bounds undo by retention time; we bound by
*versions per row* (``RowStoreConfig.undo_retention_versions``).  A
background :class:`UndoRetentionManager` sweeps the block store and cuts
each chain to the newest K versions (``DataBlock.prune_undo``).  A consistent read that later needs a
pruned version fails with :class:`~repro.common.errors.SnapshotTooOldError`
-- the ORA-01555 analogue -- rather than silently returning wrong data.

Safety: queries and IMCU population on both databases always read at
*recent* snapshots (current SCN / published QuerySCN), so the default
retention of 1024 versions is far beyond anything they can need; the
sweep exists to bound memory in long OLTAP runs.
"""

from __future__ import annotations

from typing import Optional

from repro.rowstore.segment import BlockStore
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler

#: Simulated CPU seconds per pruned version.
PRUNE_COST_PER_VERSION = 1e-7
#: Simulated seconds between sweeps.
SWEEP_INTERVAL = 0.5


class UndoRetentionManager(Actor):
    """Background sweeper pruning version chains to a retention bound."""

    def __init__(
        self,
        store: BlockStore,
        keep_versions: int = 1024,
        name: str = "undo-retention",
        node: Optional[CpuNode] = None,
    ) -> None:
        if keep_versions < 1:
            raise ValueError("must retain at least the current version")
        self.store = store
        self.keep_versions = keep_versions
        self.name = name
        self.node = node
        self._last_sweep = -1.0
        self.versions_pruned = 0
        self.sweeps = 0

    def sweep(self) -> int:
        """Prune every block once; returns versions dropped."""
        dropped = 0
        for block in self.store._blocks.values():
            dropped += block.prune_undo(self.keep_versions)
        self.sweeps += 1
        self.versions_pruned += dropped
        return dropped

    def step(self, sched: Scheduler) -> Optional[float]:
        # parked until the next sweep is due
        if sched.now < self._last_sweep + SWEEP_INTERVAL:
            self.park = self._last_sweep + SWEEP_INTERVAL
            return None
        self._last_sweep = sched.now
        self.park = self._last_sweep + SWEEP_INTERVAL
        dropped = self.sweep()
        if dropped == 0:
            return 1e-6
        return PRUNE_COST_PER_VERSION * dropped
