"""The data dictionary: tables by name and by object id.

Each database (primary cluster, standby) owns one catalog.  Tables are
materialised from :class:`~repro.db.schema_def.TableDef` so both sides
build byte-identical physical layouts; the standby additionally routes
applied change vectors through ``table_for_object``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.errors import InvalidStateError, ObjectNotFoundError
from repro.common.ids import ObjectId
from repro.rowstore.buffer_cache import BufferCache
from repro.rowstore.segment import BlockStore
from repro.rowstore.table import Table
from repro.db.schema_def import TableDef


class Catalog:
    """Data dictionary of one database."""

    def __init__(
        self,
        store: BlockStore,
        buffer_cache: Optional[BufferCache] = None,
    ) -> None:
        self._store = store
        self._buffer_cache = buffer_cache
        self._next_object_id = 100
        self._tables: dict[str, Table] = {}
        self._by_object: dict[ObjectId, Table] = {}
        self._defs: dict[str, TableDef] = {}

    # ------------------------------------------------------------------
    def allocate_object_id(self) -> ObjectId:
        object_id = self._next_object_id
        self._next_object_id += 1
        return object_id

    def create_table(self, table_def: TableDef) -> Table:
        """Materialise a table from its definition.

        When the definition carries explicit partition object ids (standby
        side, or marker replay) those are honoured; otherwise fresh ids are
        allocated (primary side).
        """
        if table_def.name in self._tables:
            raise InvalidStateError(f"table {table_def.name!r} already exists")
        schema = table_def.schema()
        explicit = dict(table_def.partition_object_ids)
        names = table_def.scheme.partition_names
        table = Table(
            table_def.name,
            schema,
            self._store,
            object_id_allocator=self.allocate_object_id,
            tenant=table_def.tenant,
            rows_per_block=table_def.rows_per_block,
            partition_names=[],  # added below with controlled ids
            partition_fn=table_def.scheme.router(schema),
            buffer_cache=self._buffer_cache,
        )
        # Table() with an empty partition list creates the default "P0";
        # clear it and add the real partitions with pinned ids.
        table.partitions.clear()
        table._by_object_id.clear()
        assigned: list[tuple[str, ObjectId]] = []
        for name in names:
            object_id = explicit.get(name)
            partition = table.add_partition(name, object_id=object_id)
            assigned.append((name, partition.object_id))
            # keep the allocator ahead of any explicitly pinned ids
            if partition.object_id >= self._next_object_id:
                self._next_object_id = partition.object_id + 1
        for column in table_def.indexes:
            table.create_index(column)
        self._tables[table_def.name] = table
        self._defs[table_def.name] = table_def.with_object_ids(assigned)
        for object_id, partition in table._by_object_id.items():
            self._by_object[object_id] = table
        return table

    def install(self, table_def: TableDef) -> Table:
        """Standby side: materialise a shipped definition.  The name moves
        to the new table; an older table of that name, whose drop is still
        to be processed, stays reachable by object id."""
        self._tables.pop(table_def.name, None)
        self._defs.pop(table_def.name, None)
        return self.create_table(table_def)

    def drop_table(self, name: str) -> Table:
        table = self.table(name)
        self.drop_objects(table.object_ids)
        return table

    def drop_objects(self, object_ids) -> None:
        """Drop the table owning ``object_ids``; its name goes with it
        unless a newer table has taken the name over."""
        for object_id in object_ids:
            table = self._by_object.pop(object_id, None)
            if table is not None and self._tables.get(table.name) is table:
                del self._tables[table.name]
                del self._defs[table.name]

    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise ObjectNotFoundError(f"no such table: {name!r}")

    def table_for_object(self, object_id: ObjectId) -> Table:
        try:
            return self._by_object[object_id]
        except KeyError:
            raise ObjectNotFoundError(f"no table owns object id {object_id}")

    def has_object(self, object_id: ObjectId) -> bool:
        return object_id in self._by_object

    def definition(self, name: str) -> TableDef:
        """The definition with assigned object ids (ships to the standby)."""
        return self._defs[name]

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables
