"""Tests for In-Memory Join Groups (section V feature)."""

import itertools

import pytest

from repro.common import TransactionId
from repro.common.config import IMCSConfig
from repro.imcs import (
    InMemoryColumnStore,
    JoinExecutor,
    JoinGroupMember,
    JoinGroupRegistry,
    PopulationEngine,
    Predicate,
    ScanEngine,
)
from repro.imcs.compression import GlobalDictionary, SharedDictionaryCU
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table


class FakeTxnView:
    def __init__(self):
        self._c = {}

    def commit(self, xid, scn):
        self._c[xid] = scn

    def commit_scn_of(self, xid):
        return self._c.get(xid)


class TestGlobalDictionary:
    def test_encode_is_stable(self):
        d = GlobalDictionary()
        assert d.encode("a") == d.encode("a")
        assert d.encode("b") != d.encode("a")
        assert d.decode(d.encode("b")) == "b"
        assert len(d) == 2

    def test_lookup_never_assigns(self):
        d = GlobalDictionary()
        assert d.lookup("nope") is None
        assert len(d) == 0


class TestSharedDictionaryCU:
    def test_same_value_same_code_across_cus(self):
        d = GlobalDictionary()
        cu1 = SharedDictionaryCU(["x", "y", None], d)
        cu2 = SharedDictionaryCU(["y", "z", "x"], d)
        assert cu1.codes[0] == cu2.codes[2]  # both 'x'
        assert cu1.codes[1] == cu2.codes[0]  # both 'y'

    def test_roundtrip_and_masks(self):
        d = GlobalDictionary()
        cu = SharedDictionaryCU(["b", "a", None, "b"], d)
        assert cu.take(range(4)) == ["b", "a", None, "b"]
        assert list(cu.eq_mask("b")) == [True, False, False, True]
        assert list(cu.null_mask()) == [False, False, True, False]

    def test_range_mask_despite_unsorted_codes(self):
        d = GlobalDictionary()
        d.encode("z")  # force assignment order != value order
        cu = SharedDictionaryCU(["z", "a", "m"], d)
        assert list(cu.range_mask("a", "m")) == [False, True, True]

    def test_min_max_on_values(self):
        d = GlobalDictionary()
        cu = SharedDictionaryCU(["m", "z", "a"], d)
        assert cu.min_value == "a"
        assert cu.max_value == "z"


def build_pair(txns, use_group=True):
    """FACTS(fact_id, region, amount) joined to DIMS(region, name)."""
    oid = itertools.count(900)
    store_blocks = BlockStore()
    facts = Table(
        "FACTS",
        Schema([
            Column("fact_id", ColumnType.NUMBER, nullable=False),
            Column("region", ColumnType.VARCHAR2),
            Column("amount", ColumnType.NUMBER),
        ]),
        store_blocks, object_id_allocator=lambda: next(oid), rows_per_block=8,
    )
    dims = Table(
        "DIMS",
        Schema([
            Column("region", ColumnType.VARCHAR2),
            Column("name", ColumnType.VARCHAR2),
        ]),
        store_blocks, object_id_allocator=lambda: next(oid), rows_per_block=8,
    )
    xid = TransactionId(1, 1)
    for i in range(60):
        facts.insert_row((i, f"r{i % 6}", float(i)), xid, 10 + i)
    for r in range(6):
        dims.insert_row((f"r{r}", f"Region {r}"), xid, 100 + r)
    txns.commit(xid, 200)

    store = InMemoryColumnStore()
    store.enable(facts)
    store.enable(dims)
    registry = JoinGroupRegistry()
    if use_group:
        group = registry.create("rg", [
            JoinGroupMember("FACTS", "region"),
            JoinGroupMember("DIMS", "region"),
        ])
        for table in (facts, dims):
            for object_id in table.object_ids:
                store.set_join_dictionary(
                    object_id, "region", group.dictionary
                )
    engine = PopulationEngine(
        store, txns, lambda owner: 500, IMCSConfig(imcu_target_rows=32)
    )
    engine.schedule_all()
    while engine.run_one_task(object()) is not None:
        pass
    executor = JoinExecutor(ScanEngine(store, txns), registry)
    return facts, dims, store, executor


class TestJoinExecutor:
    def test_join_with_group_uses_code_path(self):
        txns = FakeTxnView()
        facts, dims, store, executor = build_pair(txns)
        result = executor.join(
            facts, "region", dims, "region", snapshot_scn=500,
            columns_a=["fact_id", "amount"], columns_b=["name"],
        )
        assert len(result.rows) == 60  # every fact matches one dim
        assert result.stats.used_join_group
        assert result.stats.code_path_rows == 60
        assert result.stats.value_path_rows == 0
        # sanity on one joined tuple: fact_id, amount, name
        sample = next(r for r in result.rows if r[0] == 7)
        assert sample == (7, 7.0, "Region 1")

    def test_join_without_group_matches_same_rows(self):
        txns = FakeTxnView()
        facts, dims, store, executor = build_pair(txns, use_group=False)
        result = executor.join(
            facts, "region", dims, "region", snapshot_scn=500,
            columns_a=["fact_id"], columns_b=["name"],
        )
        assert len(result.rows) == 60
        assert not result.stats.used_join_group
        assert result.stats.code_path_rows == 0
        assert result.stats.value_path_rows == 60

    def test_join_with_predicates(self):
        txns = FakeTxnView()
        facts, dims, store, executor = build_pair(txns)
        result = executor.join(
            facts, "region", dims, "region", snapshot_scn=500,
            predicates_a=[Predicate.ge("amount", 50.0)],
            predicates_b=[Predicate.eq("region", "r3")],
            columns_a=["fact_id"], columns_b=["name"],
        )
        # facts with amount >= 50 and region r3: ids 51, 57
        assert sorted(r[0] for r in result.rows) == [51, 57]

    def test_reconcile_rows_join_by_value(self):
        """A fact updated to a brand-new region value (not in the shared
        dictionary) joins a dim inserted after population -- via the
        value path."""
        txns = FakeTxnView()
        facts, dims, store, executor = build_pair(txns)
        writer = TransactionId(1, 2)
        fact_rowid = facts.indexes.get("fact_id")
        # no index: find rowid through a scan of block 0 slot 0 (fact 0)
        first = store.segment(facts.default_partition.object_id)
        rowid = first.live_units()[0].imcu.rowids[0]
        facts.update_row(rowid, {"region": "r-new"}, writer, 600, txns)
        dims.insert_row(("r-new", "Brand New"), writer, 601)
        txns.commit(writer, 650)
        store.invalidate(
            facts.default_partition.object_id, rowid.dba, (rowid.slot,), 650
        )
        result = executor.join(
            facts, "region", dims, "region", snapshot_scn=700,
            columns_a=["fact_id"], columns_b=["name"],
        )
        joined = {r for r in result.rows if r[1] == "Brand New"}
        assert joined == {(0, "Brand New")}
        assert result.stats.value_path_rows >= 1

    def test_null_keys_never_join(self):
        txns = FakeTxnView()
        facts, dims, store, executor = build_pair(txns)
        writer = TransactionId(1, 3)
        facts.insert_row((999, None, 1.0), writer, 700)
        txns.commit(writer, 701)
        result = executor.join(
            facts, "region", dims, "region", snapshot_scn=800,
            columns_a=["fact_id"], columns_b=["name"],
        )
        assert all(r[0] != 999 for r in result.rows)


class TestRegistry:
    def test_duplicate_group_rejected(self):
        registry = JoinGroupRegistry()
        members = [JoinGroupMember("A", "x"), JoinGroupMember("B", "x")]
        registry.create("g", members)
        with pytest.raises(ValueError):
            registry.create("g", members)

    def test_single_member_rejected(self):
        with pytest.raises(ValueError):
            JoinGroupRegistry().create("g", [JoinGroupMember("A", "x")])

    def test_group_covering(self):
        registry = JoinGroupRegistry()
        registry.create("g", [
            JoinGroupMember("A", "x"), JoinGroupMember("B", "y"),
        ])
        assert registry.group_covering("A", "x", "B", "y") is not None
        assert registry.group_covering("A", "x", "B", "z") is None
        assert registry.dictionary_for("A", "x") is not None
        assert registry.dictionary_for("C", "x") is None


class TestFacadeIntegration:
    def test_join_group_on_standby(self):
        from repro.db import ColumnDef, Deployment, InMemoryService, TableDef

        deployment = Deployment.build()
        deployment.create_table(TableDef(
            "F", (ColumnDef.number("id", nullable=False),
                  ColumnDef.varchar("k"), ColumnDef.number("v")),
        ))
        deployment.create_table(TableDef(
            "D", (ColumnDef.varchar("k"), ColumnDef.varchar("label")),
        ))
        primary = deployment.primary
        txn = primary.begin()
        for i in range(40):
            primary.insert(txn, "F", (i, f"k{i % 4}", float(i)))
        for k in range(4):
            primary.insert(txn, "D", (f"k{k}", f"Label {k}"))
        primary.commit(txn)
        deployment.enable_inmemory("F", service=InMemoryService.STANDBY)
        deployment.enable_inmemory("D", service=InMemoryService.STANDBY)
        deployment.run_until_standby_has("D")
        deployment.standby.create_join_group("kg", [("F", "k"), ("D", "k")])
        deployment.catch_up()

        result = deployment.standby.join(
            "F", "k", "D", "k",
            columns_a=["id", "v"], columns_b=["label"],
        )
        assert len(result.rows) == 40
        assert result.stats.used_join_group
        assert result.stats.code_path_rows == 40
