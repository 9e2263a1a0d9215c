"""Heap tables with partitions and indexes.

A table is a set of named partitions (non-partitioned tables get a single
implicit partition), each backed by its own :class:`Segment` with its own
object id -- matching Oracle, where in-memory population is configured per
(sub)partition segment.  This per-segment identity is what lets the
capacity-expansion deployment of Figure 2 populate different SALES
partitions on the primary and the standby.

The mutation API is split in two, mirroring the two sides of ADG:

* **primary-side** ops (``insert_row`` / ``update_row`` / ``delete_row``)
  allocate physical addresses and push versions; the transaction layer
  wraps them and emits redo change vectors;
* **standby-side** ops (``apply_insert`` / ``apply_update`` /
  ``apply_delete``) replay change vectors at the exact addresses the
  primary chose -- physical replication.

Reads are strictly snapshot-consistent via :mod:`repro.rowstore.cr`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.common.errors import InvalidStateError, ObjectNotFoundError
from repro.common.ids import DBA, ObjectId, RowId, TenantId, TransactionId
from repro.common.scn import SCN
from repro.rowstore.buffer_cache import BufferCache
from repro.rowstore.cr import TransactionView, visible_values
from repro.rowstore.index import HashIndex
from repro.rowstore.segment import BlockStore, Segment
from repro.rowstore.values import Schema


class RowLockConflictError(InvalidStateError):
    """A DML hit a row whose newest version belongs to an uncommitted
    transaction (Oracle would enqueue; the workload driver retries)."""


class Partition:
    """One partition: a named segment of the table."""

    def __init__(self, name: str, segment: Segment) -> None:
        self.name = name
        self.segment = segment

    @property
    def object_id(self) -> ObjectId:
        return self.segment.object_id

    def __repr__(self) -> str:
        return f"Partition({self.name!r}, obj={self.object_id})"


class Table:
    """A heap table."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        store: BlockStore,
        object_id_allocator: Callable[[], ObjectId],
        tenant: TenantId = 0,
        rows_per_block: int = 64,
        partition_names: Optional[list[str]] = None,
        partition_fn: Optional[Callable[[tuple], str]] = None,
        buffer_cache: Optional[BufferCache] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.tenant = tenant
        self._store = store
        self._alloc_object_id = object_id_allocator
        self.rows_per_block = rows_per_block
        self.buffer_cache = buffer_cache
        self._partition_fn = partition_fn
        self.partitions: dict[str, Partition] = {}
        self._by_object_id: dict[ObjectId, Partition] = {}
        for pname in partition_names or ["P0"]:
            self.add_partition(pname)
        self.indexes: dict[str, HashIndex] = {}
        # (key position, index) per index, resolved once by create_index
        self._keyed: list[tuple[int, HashIndex]] = []

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def add_partition(self, name: str, object_id: Optional[ObjectId] = None) -> Partition:
        if name in self.partitions:
            raise InvalidStateError(f"partition {name!r} already exists")
        oid = object_id if object_id is not None else self._alloc_object_id()
        segment = Segment(oid, self._store, self.rows_per_block)
        partition = Partition(name, segment)
        self.partitions[name] = partition
        self._by_object_id[oid] = partition
        return partition

    def partition(self, name: str) -> Partition:
        try:
            return self.partitions[name]
        except KeyError:
            raise ObjectNotFoundError(f"{self.name}: no partition {name!r}")

    def partition_by_object_id(self, object_id: ObjectId) -> Partition:
        try:
            return self._by_object_id[object_id]
        except KeyError:
            raise ObjectNotFoundError(
                f"{self.name}: no partition with object id {object_id}"
            )

    @property
    def object_ids(self) -> list[ObjectId]:
        return list(self._by_object_id)

    @property
    def default_partition(self) -> Partition:
        return next(iter(self.partitions.values()))

    def create_index(self, column: str) -> HashIndex:
        """Create a unique index; existing rows are indexed immediately."""
        col = self.schema.column_index(column)
        index = HashIndex(column)
        for partition in self.partitions.values():
            for block in partition.segment.blocks():
                for slot in range(block.used_slots):
                    current = block.current(slot)
                    if current is not None:
                        index.insert(current[col], RowId(block.dba, slot))
        self.indexes[column] = index
        self._keyed = [p for p in self._keyed if p[1].column != column]
        self._keyed.append((col, index))
        return index

    def _route(self, values: tuple, partition: Optional[str]) -> Partition:
        if partition is not None:
            return self.partition(partition)
        if self._partition_fn is not None:
            return self.partition(self._partition_fn(values))
        return self.default_partition

    def _block_for(self, dba: DBA):
        if self.buffer_cache is not None:
            self.buffer_cache.touch(dba)
        return self._store.get(dba)

    # ------------------------------------------------------------------
    # primary-side DML (called by the transaction layer)
    # ------------------------------------------------------------------
    def insert_row(
        self,
        values: tuple,
        xid: TransactionId,
        scn: SCN,
        partition: Optional[str] = None,
    ) -> tuple[ObjectId, RowId]:
        """Insert and return (object id, physical address) for redo."""
        self.schema.validate_row(values)
        for i, index in self._keyed:
            index.check(values[i])
        part = self._route(values, partition)
        block = part.segment.tail_block_with_space()
        if self.buffer_cache is not None:
            self.buffer_cache.touch(block.dba)
        rowid = block.append_row(values, xid, scn)
        for i, index in self._keyed:
            index.insert(values[i], rowid)
        return part.object_id, rowid

    def _locked_row(
        self, block, rowid: RowId, xid: TransactionId, txns: TransactionView
    ) -> Optional[tuple]:
        """The row's current values (``None``: deleted), once no other
        transaction holds its lock."""
        head = block.heads[rowid.slot]
        if head < 0:
            raise ObjectNotFoundError("row slot was never written")
        writer = block.xids[head]
        if writer != xid and txns.commit_scn_of(writer) is None:
            raise RowLockConflictError(f"row locked by uncommitted {writer}")
        return block.values[head]

    def update_row(
        self,
        rowid: RowId,
        changes: dict[str, object],
        xid: TransactionId,
        scn: SCN,
        txns: TransactionView,
    ) -> tuple[ObjectId, tuple, tuple]:
        """Update named columns of the row at ``rowid``.

        Returns (object id, old full tuple, new full tuple); the redo layer
        ships the new tuple plus the changed column set.
        """
        block = self._block_for(rowid.dba)
        old_values = self._locked_row(block, rowid, xid, txns)
        if old_values is None:
            raise ObjectNotFoundError(f"row {rowid} is deleted")
        new_values = list(old_values)
        for column, value in changes.items():
            # every other cell was validated when it was written
            new_values[self.schema.validate_value(column, value)] = value
        new_tuple = tuple(new_values)
        for i, index in self._keyed:
            if index.column in changes:
                index.check(new_tuple[i], rowid)
        block.write_slot(rowid.slot, new_tuple, xid, scn)
        for i, index in self._keyed:
            if index.column in changes:
                index.delete(old_values[i])
                index.insert(new_tuple[i], rowid)
        return block.object_id, old_values, new_tuple

    def delete_row(
        self,
        rowid: RowId,
        xid: TransactionId,
        scn: SCN,
        txns: TransactionView,
    ) -> tuple[ObjectId, tuple]:
        """Delete the row at ``rowid``; returns (object id, old tuple)."""
        block = self._block_for(rowid.dba)
        old_values = self._locked_row(block, rowid, xid, txns)
        if old_values is None:
            raise ObjectNotFoundError(f"row {rowid} already deleted")
        block.write_slot(rowid.slot, None, xid, scn)
        for i, index in self._keyed:
            index.delete(old_values[i])
        return block.object_id, old_values

    # ------------------------------------------------------------------
    # standby-side physical apply
    #
    # Media recovery applies redo to blocks *in* the buffer cache, so every
    # applied block is left resident: the reconcile fetches a scan pays for
    # recently-changed rows are hits, not simulated physical reads.
    # ------------------------------------------------------------------
    def _apply_block(self, object_id: ObjectId, dba: DBA, scn: SCN):
        part = self.partition_by_object_id(object_id)
        segment = part.segment
        truncate_scn = segment.truncate_scn
        if truncate_scn is not None and scn <= truncate_scn:
            # The CV predates a TRUNCATE another worker already replayed:
            # the row is wiped regardless, and re-applying it here would
            # resurrect a ghost visible at post-truncate snapshots.
            return None
        block = segment.ensure_block(dba)
        if self.buffer_cache is not None:
            self.buffer_cache.touch(dba)
        return block

    def apply_insert(
        self,
        object_id: ObjectId,
        dba: DBA,
        slot: int,
        values: tuple,
        xid: TransactionId,
        scn: SCN,
    ) -> None:
        block = self._apply_block(object_id, dba, scn)
        if block is None:
            return
        block.apply_at_slot(slot, values, xid, scn)
        rowid = RowId(dba, slot)
        for i, index in self._keyed:
            index.insert(values[i], rowid)

    def apply_update(
        self,
        object_id: ObjectId,
        dba: DBA,
        slot: int,
        new_values: tuple,
        changed_columns: tuple[str, ...],
        xid: TransactionId,
        scn: SCN,
    ) -> None:
        block = self._apply_block(object_id, dba, scn)
        if block is None:
            return
        old = block.current(slot)
        block.apply_at_slot(slot, new_values, xid, scn)
        rowid = RowId(dba, slot)
        for i, index in self._keyed:
            if index.column in changed_columns:
                if old is not None:
                    index.delete(old[i])
                index.insert(new_values[i], rowid)

    def apply_delete(
        self,
        object_id: ObjectId,
        dba: DBA,
        slot: int,
        old_values: tuple,
        xid: TransactionId,
        scn: SCN,
    ) -> None:
        block = self._apply_block(object_id, dba, scn)
        if block is None:
            return
        block.apply_at_slot(slot, None, xid, scn)
        for i, index in self._keyed:
            index.delete(old_values[i])

    def apply_undo(
        self,
        object_id: ObjectId,
        dba: DBA,
        slot: int,
        xid: TransactionId,
        scn: SCN,
    ) -> None:
        """Apply a compensating (rollback) change vector.

        Strips the newest version at the slot if it belongs to ``xid`` and
        repairs index entries by diffing the stripped values against the
        restored current version.
        """
        block = self._apply_block(object_id, dba, scn)
        if block is None:
            return
        stripped = block.current(slot)
        if not block.undo_write(slot, xid):
            return
        restored = block.current(slot)
        rowid = RowId(dba, slot)
        for i, index in self._keyed:
            old_key = stripped[i] if stripped is not None else None
            new_key = restored[i] if restored is not None else None
            if old_key != new_key:
                index.delete(old_key)
                index.insert(new_key, rowid)

    def apply_truncate(self, object_id: ObjectId, scn: SCN) -> None:
        """Replay a TRUNCATE change vector against one partition."""
        part = self.partition_by_object_id(object_id)
        self.truncate_partition(part.name, scn)

    # ------------------------------------------------------------------
    # reads (consistent)
    # ------------------------------------------------------------------
    def fetch_by_rowid(
        self,
        rowid: RowId,
        snapshot_scn: SCN,
        txns: TransactionView,
        reader_xid: Optional[TransactionId] = None,
    ) -> Optional[tuple]:
        return visible_values(
            self._block_for(rowid.dba), rowid.slot, snapshot_scn, txns,
            reader_xid,
        )

    def index_fetch(
        self,
        column: str,
        key: object,
        snapshot_scn: SCN,
        txns: TransactionView,
        reader_xid: Optional[TransactionId] = None,
    ) -> Optional[tuple]:
        """Point lookup through the index, then a consistent row fetch."""
        index = self.indexes.get(column)
        if index is None:
            raise ObjectNotFoundError(f"no index on {self.name}.{column}")
        rowid = index.search(key)
        if rowid is None:
            return None
        return self.fetch_by_rowid(rowid, snapshot_scn, txns, reader_xid)

    def full_scan(
        self,
        snapshot_scn: SCN,
        txns: TransactionView,
        reader_xid: Optional[TransactionId] = None,
        partitions: Optional[list[str]] = None,
    ) -> Iterator[tuple[RowId, tuple]]:
        """Row-format full table scan at a snapshot.

        Deliberately row-at-a-time: this is the slow path whose cost the
        In-Memory Column Store removes.
        """
        names = partitions if partitions is not None else list(self.partitions)
        for pname in names:
            segment = self.partition(pname).segment
            for block in segment.blocks():
                if self.buffer_cache is not None:
                    self.buffer_cache.touch(block.dba)
                for slot in range(block.used_slots):
                    values = visible_values(
                        block, slot, snapshot_scn, txns, reader_xid
                    )
                    if values is not None:
                        yield RowId(block.dba, slot), values

    def truncate_partition(self, name: str, scn: SCN) -> None:
        """TRUNCATE: wipe a partition's rows as of ``scn``, index entries too.

        A slot's entry is the key of its newest wiped live version.  It is
        removed only while it still points at the slot and the slot's
        surviving head -- a post-truncate row another worker applied first,
        see :meth:`Segment.truncate` -- does not carry the same key.
        """
        segment = self.partition(name).segment
        for block in segment.blocks():
            for slot, head in enumerate(block.heads):
                i = head
                while i >= 0 and block.scns[i] > scn:
                    i = block.prev[i]
                wiped = block.values[i] if i >= 0 else None
                if wiped is None:
                    continue
                survivor = block.values[head] if head != i else None
                rowid = RowId(block.dba, slot)
                for c, index in self._keyed:
                    key = wiped[c]
                    if index.search(key) == rowid and (
                        survivor is None or survivor[c] != key
                    ):
                        index.delete(key)
        segment.truncate(scn)

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, tenant={self.tenant}, "
            f"partitions={list(self.partitions)})"
        )
