"""Segments and the block store ("datafiles").

A segment is the physical storage of one table or partition: an ordered
list of DBAs.  The :class:`BlockStore` owns every block in one database and
allocates DBAs from a single counter, so a DBA uniquely identifies a block
database-wide -- the property the parallel apply hash relies on.

Physical standby semantics: a standby's block store starts empty and is
built purely by replaying change vectors (``BlockStore.ensure``,
``Segment.ensure_block``).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.ids import DBA, ObjectId
from repro.rowstore.block import DataBlock


class BlockStore:
    """All data blocks of one database, addressed by DBA."""

    def __init__(self) -> None:
        self._blocks: dict[DBA, DataBlock] = {}
        self._next_dba: DBA = 1

    def allocate(self, object_id: ObjectId, capacity: int) -> DataBlock:
        """Allocate a fresh block for a segment (primary side)."""
        dba = self._next_dba
        self._next_dba += 1
        block = DataBlock(dba, object_id, capacity)
        self._blocks[dba] = block
        return block

    def ensure(self, dba: DBA, object_id: ObjectId, capacity: int) -> DataBlock:
        """Get block ``dba``, materialising it if absent (standby apply).

        Keeps the DBA counter ahead of any replayed allocation so a
        failed-over standby would not re-issue used DBAs.
        """
        block = self._blocks.get(dba)
        if block is None:
            block = DataBlock(dba, object_id, capacity)
            self._blocks[dba] = block
            if dba >= self._next_dba:
                self._next_dba = dba + 1
        return block

    def get(self, dba: DBA) -> DataBlock:
        return self._blocks[dba]

    def get_optional(self, dba: DBA) -> Optional[DataBlock]:
        return self._blocks.get(dba)



class Segment:
    """The ordered blocks of one table/partition."""

    def __init__(
        self,
        object_id: ObjectId,
        store: BlockStore,
        rows_per_block: int,
    ) -> None:
        self.object_id = object_id
        self._store = store
        self.rows_per_block = rows_per_block
        self._dbas: list[DBA] = []
        self._dba_set: set[DBA] = set()
        #: SCN of the latest TRUNCATE replayed against this segment, or
        #: None.  Parallel apply orders CVs per *block*, not per object,
        #: so a TRUNCATE (reserved DBA) can race the object's data CVs
        #: across workers; recording the wipe SCN lets both sides
        #: commute (see :meth:`truncate` and ``Table._apply_block``).
        self.truncate_scn: Optional[int] = None

    # -- geometry --------------------------------------------------------
    @property
    def dbas(self) -> list[DBA]:
        return list(self._dbas)

    @property
    def n_blocks(self) -> int:
        return len(self._dbas)

    def blocks(self) -> Iterator[DataBlock]:
        for dba in self._dbas:
            yield self._store.get(dba)

    # -- primary-side allocation -----------------------------------------
    def tail_block_with_space(self) -> DataBlock:
        """The block new inserts go to, extending the segment if needed."""
        if self._dbas:
            tail = self._store.get(self._dbas[-1])
            if tail.has_free_slot:
                return tail
        block = self._store.allocate(self.object_id, self.rows_per_block)
        self._dbas.append(block.dba)
        self._dba_set.add(block.dba)
        return block

    # -- standby-side materialisation --------------------------------------
    def ensure_block(self, dba: DBA) -> DataBlock:
        """Materialise block ``dba`` within this segment (redo apply)."""
        block = self._store.ensure(dba, self.object_id, self.rows_per_block)
        if dba not in self._dba_set:
            self._dba_set.add(dba)
            self._dbas.append(dba)
            self._dbas.sort()
        return block

    # -- maintenance -------------------------------------------------------
    def truncate(self, scn: int) -> None:
        """Drop every row version changed at or below ``scn``.

        Blocks with nothing left are deallocated.  Versions *newer* than
        ``scn`` survive, wherever they are: on a standby another worker
        may have applied post-truncate changes before this TRUNCATE CV --
        into a fresh block, or into a wiped one that a transaction spanning
        the wipe brought back (its rollback's UNDO) -- and wiping them would
        lose committed rows.
        """
        survivors: list[DBA] = []
        for dba in self._dbas:
            if self._store.get(dba).wipe_through(scn):
                survivors.append(dba)
        self._dbas = survivors
        self._dba_set = set(survivors)
        if self.truncate_scn is None or scn > self.truncate_scn:
            self.truncate_scn = scn
