"""The database buffer cache.

The paper is explicit that "an important part of the setup is ensuring that
the Oracle database buffer cache is sized appropriately to avoid any
physical I/O" -- the 100x speedups in Figure 9 are CPU effects (row-format
vs column-format scan), not disk effects.  We model the cache anyway so the
cost model can (a) verify that the benchmark configurations really are
I/O-free, and (b) charge a simulated penalty when a configuration is
mis-sized.

Blocks permanently live in the :class:`BlockStore` ("disk"); the cache
tracks which DBAs are resident and applies LRU eviction.  A miss charges a
simulated read cost.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.ids import DBA

#: Simulated seconds to read one block from disk on a miss.
DEFAULT_MISS_COST = 0.0002


class BufferCache:
    """LRU cache of resident DBAs with hit/miss accounting."""

    def __init__(
        self, capacity_blocks: int | None = None, miss_cost: float = DEFAULT_MISS_COST
    ) -> None:
        #: None = unlimited (every touched block stays resident).
        self.capacity_blocks = capacity_blocks
        self.miss_cost = miss_cost
        self._resident: OrderedDict[DBA, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def touch(self, dba: DBA) -> float:
        """Access a block; returns the simulated I/O cost (0.0 on a hit)."""
        if dba in self._resident:
            self._resident.move_to_end(dba)
            self.hits += 1
            return 0.0
        self.misses += 1
        self._resident[dba] = None
        if (
            self.capacity_blocks is not None
            and len(self._resident) > self.capacity_blocks
        ):
            self._resident.popitem(last=False)
        return self.miss_cost

    def invalidate(self, dba: DBA) -> None:
        self._resident.pop(dba, None)

    @property
    def resident_blocks(self) -> int:
        return len(self._resident)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def __repr__(self) -> str:
        return (
            f"BufferCache(resident={self.resident_blocks}, "
            f"hit_ratio={self.hit_ratio:.3f})"
        )
