"""Tests for table definitions and the catalog."""

import pytest

from repro.common import InvalidStateError, ObjectNotFoundError
from repro.db import Catalog, ColumnDef, PartitionScheme, TableDef
from repro.rowstore import BlockStore


def table_def(scheme=None, name="T"):
    return TableDef(
        name,
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("amount"),
            ColumnDef.varchar("region"),
        ),
        scheme=scheme or PartitionScheme.single(),
        indexes=("id",),
    )


class TestPartitionScheme:
    def test_single(self):
        scheme = PartitionScheme.single()
        assert scheme.partition_names == ["P0"]
        assert scheme.router(table_def().schema()) is None

    def test_range_routing(self):
        scheme = PartitionScheme.by_range(
            "amount", [("LOW", 100), ("MID", 200), ("HIGH", None)]
        )
        router = scheme.router(table_def(scheme).schema())
        assert router((1, 50, "x")) == "LOW"
        assert router((1, 100, "x")) == "MID"
        assert router((1, 5000, "x")) == "HIGH"

    def test_range_without_maxvalue_rejects_high_keys(self):
        scheme = PartitionScheme.by_range("amount", [("LOW", 100)])
        router = scheme.router(table_def(scheme).schema())
        with pytest.raises(ValueError):
            router((1, 500, "x"))

    def test_hash_routing_is_stable(self):
        scheme = PartitionScheme.by_hash("id", ["H1", "H2", "H3"])
        router = scheme.router(table_def(scheme).schema())
        assert router((42, 0, "x")) == router((42, 9, "y"))
        assert set(router((i, 0, "x")) for i in range(50)) == {"H1", "H2", "H3"}


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog(BlockStore())
        table = catalog.create_table(table_def())
        assert catalog.table("T") is table
        assert "T" in catalog
        for object_id in table.object_ids:
            assert catalog.table_for_object(object_id) is table

    def test_duplicate_name_rejected(self):
        catalog = Catalog(BlockStore())
        catalog.create_table(table_def())
        with pytest.raises(InvalidStateError):
            catalog.create_table(table_def())

    def test_unknown_lookups_raise(self):
        catalog = Catalog(BlockStore())
        with pytest.raises(ObjectNotFoundError):
            catalog.table("NOPE")
        with pytest.raises(ObjectNotFoundError):
            catalog.table_for_object(31337)

    def test_definition_records_assigned_object_ids(self):
        catalog = Catalog(BlockStore())
        scheme = PartitionScheme.by_hash("id", ["H1", "H2"])
        table = catalog.create_table(table_def(scheme))
        definition = catalog.definition("T")
        assert dict(definition.partition_object_ids) == {
            "H1": table.partition("H1").object_id,
            "H2": table.partition("H2").object_id,
        }

    def test_standby_rebuild_pins_object_ids(self):
        """The shipped definition materialises identical object ids on
        another catalog -- the physical-replication requirement."""
        primary_catalog = Catalog(BlockStore())
        scheme = PartitionScheme.by_hash("id", ["H1", "H2"])
        primary_catalog.create_table(table_def(scheme))
        shipped = primary_catalog.definition("T")

        standby_catalog = Catalog(BlockStore())
        standby_table = standby_catalog.create_table(shipped)
        assert dict(shipped.partition_object_ids) == {
            name: standby_table.partition(name).object_id
            for name in ("H1", "H2")
        }

    def test_allocator_skips_pinned_ids(self):
        catalog = Catalog(BlockStore())
        pinned = table_def().with_object_ids([("P0", 250)])
        catalog.create_table(pinned)
        other = catalog.create_table(table_def(name="U"))
        assert all(oid > 250 for oid in other.object_ids)

    def test_drop_table(self):
        catalog = Catalog(BlockStore())
        table = catalog.create_table(table_def())
        object_ids = table.object_ids
        catalog.drop_table("T")
        assert "T" not in catalog
        for object_id in object_ids:
            assert not catalog.has_object(object_id)

    def test_indexes_created_from_definition(self):
        catalog = Catalog(BlockStore())
        table = catalog.create_table(table_def())
        assert "id" in table.indexes
