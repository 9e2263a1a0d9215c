"""Reference model for the row store's version chains: one object per version.

Before the block version store this *was* production
(``repro.rowstore.version``): every change allocated a ``RowVersion``
dataclass and every slot owned a ``VersionChain`` list of them -- on the
primary, again on every standby, and walked by CR, population and undo
retention alike.  ``DataBlock`` now keeps the same chains as append-only
per-block columns linked by index (DESIGN section 17, "The block version
store"); the objects moved here unchanged, with the per-chain
``visible_version`` walk and a list-of-chains :class:`NaiveBlock`, as the
oracle ``tests/property/test_block_versions.py`` compares against.

:func:`chain_of` reads one slot of a real ``DataBlock`` back as a
:class:`VersionChain` -- the way tests look at a chain without a method in
``src`` to do it for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.common.errors import SnapshotTooOldError
from repro.common.ids import TransactionId
from repro.common.scn import SCN
from repro.rowstore.block import END, PRUNED


@dataclass(slots=True)
class RowVersion:
    """One version of one row.

    ``values is None`` marks a delete tombstone.  ``scn`` is the SCN of the
    *change* (the redo record's SCN), not the commit SCN -- commit SCNs live
    in the transaction table, mirroring Oracle's delayed block cleanout.
    """

    values: Optional[tuple]
    xid: TransactionId
    scn: SCN

    @property
    def is_delete(self) -> bool:
        return self.values is None


class VersionChain:
    """Newest-first list of :class:`RowVersion` for one row slot."""

    __slots__ = ("_versions", "truncated")

    def __init__(self) -> None:
        self._versions: list[RowVersion] = []
        #: True once old versions have been pruned; a CR walk that falls off
        #: the end of a truncated chain must raise SnapshotTooOldError.
        self.truncated = False

    def push(self, version: RowVersion) -> None:
        """Record a new change (becomes the current version)."""
        self._versions.append(version)

    @property
    def current(self) -> Optional[RowVersion]:
        """The newest version, or ``None`` for a never-written slot."""
        return self._versions[-1] if self._versions else None

    def __iter__(self) -> Iterator[RowVersion]:
        """Iterate newest to oldest."""
        return reversed(self._versions)

    def __len__(self) -> int:
        return len(self._versions)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VersionChain)
            and self._versions == other._versions
            and self.truncated == other.truncated
        )

    def __repr__(self) -> str:
        flag = ", truncated" if self.truncated else ""
        return f"VersionChain({list(self)}{flag})"

    def pop_if(self, xid: TransactionId) -> Optional[RowVersion]:
        """Remove and return the newest version iff ``xid`` wrote it.

        Used by rollback (one compensating change per original change) and
        by the standby's application of UNDO change vectors.
        """
        if self._versions and self._versions[-1].xid == xid:
            return self._versions.pop()
        return None

    def prune(self, keep: int) -> int:
        """Drop all but the newest ``keep`` versions (undo retention).

        Returns the number of versions dropped.  Never drops the current
        version.
        """
        if keep < 1:
            raise ValueError("must keep at least the current version")
        excess = len(self._versions) - keep
        if excess <= 0:
            return 0
        del self._versions[:excess]
        self.truncated = True
        return excess

    def wipe_through(self, scn: SCN) -> None:
        """Drop every version changed at or below ``scn`` (TRUNCATE).
        Nothing is visible beneath a wipe, so a chain that lost a version
        is no longer truncated."""
        kept = [v for v in self._versions if v.scn > scn]
        if len(kept) < len(self._versions):
            self.truncated = False
        self._versions = kept


def visible_version(
    chain: VersionChain,
    snapshot_scn: SCN,
    txns,
) -> Optional[RowVersion]:
    """Return the version of this row visible at ``snapshot_scn``.

    A delete tombstone *is* returned (``is_delete`` is true on it), so a
    caller can tell "deleted at the snapshot" from "no version visible";
    ``None`` means only the latter -- the row was not inserted yet, or its
    writer had not committed by the snapshot.  Raises
    :class:`SnapshotTooOldError` when the walk falls off a truncated
    chain, i.e. the undo needed to reconstruct the row has been discarded.
    """
    for version in chain:  # newest to oldest
        commit_scn = txns.commit_scn_of(version.xid)
        if commit_scn is not None and commit_scn <= snapshot_scn:
            return version
    if chain.truncated:
        raise SnapshotTooOldError(
            f"no version visible at SCN {snapshot_scn} on a truncated chain"
        )
    return None


class NaiveBlock:
    """A block as a list of :class:`VersionChain`, one per used slot,
    with ``DataBlock``'s mutation API."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.chains: list[VersionChain] = []

    @property
    def used_slots(self) -> int:
        return len(self.chains)

    def append_row(self, values, xid, scn) -> int:
        if len(self.chains) >= self.capacity:
            raise RuntimeError("block is full")
        self.chains.append(VersionChain())
        self.write_slot(len(self.chains) - 1, values, xid, scn)
        return len(self.chains) - 1

    def write_slot(self, slot, values, xid, scn) -> None:
        self.chains[slot].push(RowVersion(values, xid, scn))

    def apply_at_slot(self, slot, values, xid, scn) -> None:
        if slot >= self.capacity:
            raise RuntimeError(f"slot {slot} beyond block capacity")
        while len(self.chains) <= slot:
            self.chains.append(VersionChain())
        self.write_slot(slot, values, xid, scn)

    def undo_write(self, slot, xid) -> bool:
        if slot >= len(self.chains):
            return False
        return self.chains[slot].pop_if(xid) is not None

    def prune_undo(self, keep: int) -> int:
        return sum(chain.prune(keep) for chain in self.chains)

    def wipe_through(self, scn: SCN) -> bool:
        for chain in self.chains:
            chain.wipe_through(scn)
        while self.chains and not len(self.chains[-1]):
            self.chains.pop()
        return bool(self.chains)


def chain_of(block, slot: int) -> VersionChain:
    """One slot of a ``DataBlock`` as an oracle chain (empty beyond
    ``used_slots``), read off its columns by walking the index links."""
    chain = VersionChain()
    i = block.heads[slot] if slot < block.used_slots else END
    newest_first = []
    while i >= 0:
        newest_first.append(
            RowVersion(block.values[i], block.xids[i], block.scns[i])
        )
        i = block.prev[i]
    chain._versions = newest_first[::-1]
    chain.truncated = i == PRUNED
    return chain
