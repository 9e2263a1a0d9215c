"""The standby's quiesce lock (paper, section III-A).

The simulation is single-OS-thread but logically concurrent: many actors
(recovery workers, the recovery coordinator, population workers, query
sessions) interleave at ``step()`` granularity, and a scheduler step is
atomic.  So a structure touched only inside one step -- the IM-ADG Journal's
hash chains, the commit table's partitions -- needs no latch: the step is
the critical section.  The quiesce lock is different: its holds *span*
steps (the coordinator's quiesce period, a population worker's snapshot
capture), so it orders protocols, not memory.

It is non-blocking: ``try_acquire_*`` either succeeds or returns ``False``,
in which case the caller yields and retries on a later step.  Every failed
attempt is counted.
"""

from __future__ import annotations

from typing import Optional


class QuiesceLock:
    """The standby's quiesce lock (paper, section III-A).

    The recovery coordinator takes the lock exclusively while it is about to
    publish a new QuerySCN; population workers take it in *shared* mode while
    capturing the snapshot SCN for an IMCU.  Population must never observe
    the window in which the QuerySCN is in flux, and the coordinator must
    wait for in-flight snapshot captures to finish.
    """

    def __init__(self) -> None:
        self._exclusive_holder: Optional[object] = None
        self._shared_holders: set[int] = set()
        self._shared_objects: dict[int, object] = {}
        self.exclusive_acquisitions = 0
        self.shared_acquisitions = 0
        self.misses = 0

    def try_acquire_exclusive(self, owner: object) -> bool:
        """Coordinator entry: start the quiesce period."""
        if self._shared_holders or (
            self._exclusive_holder is not None
            and self._exclusive_holder is not owner
        ):
            self.misses += 1
            return False
        self._exclusive_holder = owner
        self.exclusive_acquisitions += 1
        return True

    def release_exclusive(self, owner: object) -> None:
        if self._exclusive_holder is not owner:
            raise RuntimeError("quiesce lock released by non-holder")
        self._exclusive_holder = None

    def try_acquire_shared(self, owner: object) -> bool:
        """Population entry: hold off QuerySCN publication while capturing
        a snapshot SCN.  Fails while the quiesce period is in progress."""
        if self._exclusive_holder is not None:
            self.misses += 1
            return False
        key = id(owner)
        self._shared_holders.add(key)
        self._shared_objects[key] = owner
        self.shared_acquisitions += 1
        return True

    def release_shared(self, owner: object) -> None:
        key = id(owner)
        if key not in self._shared_holders:
            raise RuntimeError("shared quiesce lock released by non-holder")
        self._shared_holders.remove(key)
        del self._shared_objects[key]

    @property
    def in_quiesce_period(self) -> bool:
        return self._exclusive_holder is not None

    def __repr__(self) -> str:
        return (
            f"QuiesceLock(exclusive={self._exclusive_holder is not None}, "
            f"shared={len(self._shared_holders)})"
        )
