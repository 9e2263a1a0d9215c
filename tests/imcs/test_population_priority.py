"""Population runs its queued tasks first in, first out."""

from repro.common.config import IMCSConfig
from repro.imcs import InMemoryColumnStore, PopulationEngine

from tests.imcs.conftest import load_rows
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table

import itertools


def make_table(name, oid_counter, store):
    """Tables of one database share the block store: DBAs are unique
    database-wide, which the population engine's in-flight set relies on."""
    schema = Schema(
        [
            Column("id", ColumnType.NUMBER, nullable=False),
            Column("n1", ColumnType.NUMBER),
            Column("c1", ColumnType.VARCHAR2),
        ]
    )
    return Table(
        name, schema, store,
        object_id_allocator=lambda: next(oid_counter), rows_per_block=8,
    )


def test_same_priority_is_fifo(txns, clock):
    oid_counter = itertools.count(850)
    blocks = BlockStore()
    first = make_table("FIRST", oid_counter, blocks)
    second = make_table("SECOND", oid_counter, blocks)
    load_rows(first, txns, clock, 16)
    load_rows(second, txns, clock, 16)
    store = InMemoryColumnStore()
    store.enable(first)
    store.enable(second)
    engine = PopulationEngine(
        store, txns, lambda: clock.current,
        IMCSConfig(imcu_target_rows=16),
    )
    engine.schedule_object(first.default_partition.object_id)
    engine.schedule_object(second.default_partition.object_id)
    built = []
    original = store.register_unit
    store.register_unit = lambda imcu: built.append(imcu.object_id) or original(imcu)
    while engine.run_one_task() is not None:
        pass
    assert built == [
        first.default_partition.object_id,
        second.default_partition.object_id,
    ]
