"""Data blocks: the unit the redo protocol addresses, and the version store.

Every redo change vector targets exactly one block (by DBA), and the
parallel apply engine hashes DBAs to recovery workers -- so the block is
the granularity at which apply-order is guaranteed.  A block holds a fixed
number of row slots.

It is also where Consistent Read finds old row images.  Oracle keeps
before-images in undo segments and rolls blocks back; the observable
contract -- "this row as of SCN s, skipping writers that had not committed
by s" -- is kept here as one append-only column per version attribute:

* ``values[i]`` -- the row tuple, or ``None`` for a delete tombstone;
* ``xids[i]`` -- the writing transaction.  Writers share one
  ``TransactionId`` object across all their changes, which is what lets
  CR cache a resolution by identity (``cr.visible_values_batch``);
* ``scns[i]`` -- the SCN of the *change* (the redo record's SCN), not the
  commit SCN: commit SCNs live in the transaction table, mirroring
  Oracle's delayed block cleanout;
* ``prev[i]`` -- the next older version of the same slot.

``heads[slot]`` is the slot's newest version, so a chain is a linked walk
over indices, newest first.  A walk ends at :data:`END` (nothing older) or
at :data:`PRUNED` (older versions were discarded by undo retention: a
reader that needs one gets ``SnapshotTooOldError``).  The primary's
statements and the standby's recovery workers append to the same columns,
so a standby query at the published QuerySCN walks exactly what a primary
query would.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.ids import DBA, ObjectId, RowId, TransactionId
from repro.common.scn import SCN

#: A chain link meaning "no older version".
END = -1
#: A chain link meaning "older versions were pruned".
PRUNED = -2


class DataBlock:
    """A heap block: ``capacity`` row slots over one version store."""

    __slots__ = (
        "dba", "object_id", "capacity", "heads", "values", "xids", "scns",
        "prev",
    )

    def __init__(self, dba: DBA, object_id: ObjectId, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("block capacity must be positive")
        self.dba = dba
        self.object_id = object_id
        self.capacity = capacity
        self.heads: list[int] = []
        self.values: list[Optional[tuple]] = []
        self.xids: list[TransactionId] = []
        self.scns: list[SCN] = []
        self.prev: list[int] = []

    # -- geometry ------------------------------------------------------
    @property
    def used_slots(self) -> int:
        return len(self.heads)

    @property
    def has_free_slot(self) -> bool:
        return len(self.heads) < self.capacity

    def current(self, slot: int) -> Optional[tuple]:
        """The slot's newest row image: ``None`` for a tombstone, an empty
        slot or one beyond ``used_slots`` (no CR -- what indexes track)."""
        head = self.heads[slot] if slot < len(self.heads) else END
        return self.values[head] if head >= 0 else None

    # -- primary-side mutation ------------------------------------------
    def append_row(
        self, values: tuple, xid: TransactionId, scn: SCN
    ) -> RowId:
        """Insert into the next free slot (primary-side allocation)."""
        if not self.has_free_slot:
            raise RuntimeError(f"block {self.dba} is full")
        self.heads.append(END)
        self.write_slot(len(self.heads) - 1, values, xid, scn)
        return RowId(self.dba, len(self.heads) - 1)

    def write_slot(
        self,
        slot: int,
        values: Optional[tuple],
        xid: TransactionId,
        scn: SCN,
    ) -> None:
        """Push a new version (update, or delete when ``values`` is None)."""
        heads = self.heads
        self.prev.append(heads[slot])
        heads[slot] = len(self.scns)
        self.values.append(values)
        self.xids.append(xid)
        self.scns.append(scn)

    # -- standby-side (physical apply) -----------------------------------
    def apply_at_slot(
        self,
        slot: int,
        values: Optional[tuple],
        xid: TransactionId,
        scn: SCN,
    ) -> None:
        """Apply a change vector at an exact slot.

        The standby replays the primary's physical layout: an insert CV names
        the slot the primary allocated, so intermediate empty slots may need
        to be materialised (they will be filled by their own CVs, which are
        guaranteed to arrive at this same worker in SCN order).
        """
        heads = self.heads
        if slot >= len(heads):
            if slot >= self.capacity:
                raise RuntimeError(f"slot {slot} beyond block capacity")
            heads.extend([END] * (slot + 1 - len(heads)))
        self.write_slot(slot, values, xid, scn)

    def undo_write(self, slot: int, xid: TransactionId) -> bool:
        """Strip the newest version at ``slot`` if ``xid`` wrote it.

        One compensating (UNDO) change reverses exactly one original
        change; returns whether it did.  The stripped entry is reclaimed
        when it is the newest of the block, the usual case for a rollback.
        """
        heads = self.heads
        head = heads[slot] if slot < len(heads) else END
        if head < 0 or self.xids[head] != xid:
            return False
        heads[slot] = self.prev[head]
        if head == len(self.scns) - 1:
            for column in (self.values, self.xids, self.scns, self.prev):
                column.pop()
        return True

    def wipe_through(self, scn: SCN) -> bool:
        """TRUNCATE's effect: drop every version changed at or below ``scn``.

        Per version, not per block: on a standby a transaction that spans
        the wipe can leave post-wipe changes in a block whose wiped rows
        share its slots, and another worker may have applied them before
        this TRUNCATE.  A slot that lost a version ends its chain at
        :data:`END` -- nothing is visible beneath a TRUNCATE.  Trailing
        empty slots go, so a wholly wiped block is empty again.  Returns
        whether any version survives.
        """
        scns = self.scns
        chains = []
        for walk, end in self._walks():
            kept = [i for i in walk if scns[i] > scn]
            chains.append((kept, end if len(kept) == len(walk) else END))
        while chains and not chains[-1][0]:
            chains.pop()
        self._relay(chains)
        return bool(chains)

    def prune_undo(self, keep: int) -> int:
        """Cut every chain to its newest ``keep`` versions (undo retention).

        Returns the number of versions dropped, whose entries are freed.
        Never drops a current version; a walk past the cut raises
        ``SnapshotTooOldError``.
        """
        if keep < 1:
            raise ValueError("must keep at least the current version")
        if len(self.scns) <= keep:
            return 0
        walks = list(self._walks())
        dropped = sum(max(len(walk) - keep, 0) for walk, __ in walks)
        if dropped:
            self._relay([
                (walk[:keep], PRUNED if len(walk) > keep else end)
                for walk, end in walks
            ])
        return dropped

    def _walks(self) -> Iterator[tuple[list[int], int]]:
        """Each slot's chain: its indices, newest first, and its end link."""
        prev = self.prev
        for i in self.heads:
            walk = []
            while i >= 0:
                walk.append(i)
                i = prev[i]
            yield walk, i

    def _relay(self, chains: list[tuple[list[int], int]]) -> None:
        """Lay the lists out again holding only ``chains`` (per slot, as
        :meth:`_walks` gives them)."""
        live = [i for walk, __ in chains for i in walk]
        renumber = {old: new for new, old in enumerate(live)}
        heads, prev = [], [END] * len(live)
        for walk, end in chains:
            links = [renumber[i] for i in walk] + [end]
            heads.append(links[0])
            for newer, older in zip(links, links[1:]):
                prev[newer] = older
        self.heads, self.prev = heads, prev
        self.values = [self.values[i] for i in live]
        self.xids = [self.xids[i] for i in live]
        self.scns = [self.scns[i] for i in live]

    def __repr__(self) -> str:
        return (
            f"DataBlock(dba={self.dba}, obj={self.object_id}, "
            f"{self.used_slots}/{self.capacity} slots)"
        )
