"""Latches for the cooperative-scheduler concurrency model.

The simulation is single-OS-thread but logically concurrent: many actors
(recovery workers, the recovery coordinator, population workers, query
sessions) interleave at ``step()`` granularity.  Latches therefore do not
need to protect memory, but they must still *order* operations the way the
paper's protocols require, and contention on them is a first-class
measurement (the IM-ADG Journal's bucket latches and the standby's quiesce
lock both exist precisely to manage contention).

Latches are non-blocking: ``try_acquire`` either succeeds or returns
``False``, in which case the caller is expected to yield and retry on a
later step -- exactly how an Oracle process spins on a busy latch.  Every
failed attempt is counted so benchmarks and ablations can report contention.
"""

from __future__ import annotations

from typing import Optional


class Latch:
    """A simple exclusive latch with contention accounting."""

    def __init__(self, name: str = "latch") -> None:
        self.name = name
        self._holder: Optional[object] = None
        self.acquisitions = 0
        self.misses = 0
        self.breaks = 0

    @property
    def holder(self) -> Optional[object]:
        return self._holder

    def is_held(self) -> bool:
        return self._holder is not None

    def try_acquire(self, owner: object) -> bool:
        """Attempt to take the latch for ``owner``.

        Re-acquisition by the current holder is allowed (the latch is
        effectively recursive); any other holder causes a miss.
        """
        if self._holder is None or self._holder is owner:
            self._holder = owner
            self.acquisitions += 1
            return True
        self.misses += 1
        return False

    def release(self, owner: object) -> None:
        if self._holder is not owner:
            raise RuntimeError(
                f"latch {self.name!r} released by non-holder {owner!r}"
            )
        self._holder = None

    def break_held(self) -> Optional[object]:
        """Forcibly release the latch regardless of holder (PMON-style
        latch recovery).

        In this cooperative simulation every legitimate critical section
        acquires and releases its latch within a single actor step, so a
        latch still held when another actor observes it can only belong to
        a crashed or stalled actor.  Returns the previous holder (``None``
        if the latch was already free).
        """
        holder = self._holder
        if holder is not None:
            self._holder = None
            self.breaks += 1
        return holder

    def __repr__(self) -> str:
        state = "held" if self.is_held() else "free"
        return f"Latch({self.name!r}, {state}, misses={self.misses})"


class BucketLatchSet:
    """An array of latches protecting the hash buckets of a table.

    The IM-ADG Journal sizes its hash table "based on the degree of
    parallelism employed by the ADG architecture, to ensure minimal
    contention between the recovery worker processes" (paper, section
    III-C).  One latch guards each bucket's hash chain.
    """

    def __init__(self, n_buckets: int, name: str = "bucket") -> None:
        if n_buckets < 1:
            raise ValueError("need at least one bucket")
        self._latches = [Latch(f"{name}[{i}]") for i in range(n_buckets)]

    def __len__(self) -> int:
        return len(self._latches)

    def latch_for(self, bucket: int) -> Latch:
        return self._latches[bucket % len(self._latches)]

    @property
    def total_misses(self) -> int:
        return sum(latch.misses for latch in self._latches)


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
