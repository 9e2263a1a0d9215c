"""The database buffer cache.

The paper is explicit that "an important part of the setup is ensuring that
the Oracle database buffer cache is sized appropriately to avoid any
physical I/O" -- the 100x speedups in Figure 9 are CPU effects (row-format
vs column-format scan), not disk effects.  The cache here is sized that
way: it has no capacity and evicts nothing -- a tail image's repeat counts
its blocks as hits untouched (``imcs/scan.py``).  What it models is the
cold read: the first touch of a block is a miss and charges a simulated
read cost; every later touch is a hit.

Blocks permanently live in the :class:`BlockStore` ("disk"); the cache
tracks which DBAs are resident.
"""

from __future__ import annotations

from repro.common.ids import DBA

#: Simulated seconds to read one block from disk on a miss.
DEFAULT_MISS_COST = 0.0002


class BufferCache:
    """The set of resident DBAs, with hit/miss accounting."""

    def __init__(self, miss_cost: float = DEFAULT_MISS_COST) -> None:
        self.miss_cost = miss_cost
        self._resident: set[DBA] = set()
        self.hits = 0
        self.misses = 0

    def touch(self, dba: DBA) -> float:
        """Access a block; returns the simulated I/O cost (0.0 on a hit)."""
        if dba in self._resident:
            self.hits += 1
            return 0.0
        self.misses += 1
        self._resident.add(dba)
        return self.miss_cost

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
