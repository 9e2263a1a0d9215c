"""Property: every index holds exactly the current keys of the heap.

A hash index maps the *current* key of each live row to its address and
holds no NULL key.  Hypothesis draws a history on a two-partition table
with two unique indexes, ``id`` (NOT NULL) and ``k`` (nullable): inserts
with a fresh or a NULL ``k``, updates of either key column, deletes,
rollbacks and TRUNCATE of one partition -- and inserts and updates that
reuse a key another row holds, which must be refused before any redo is
written.  After every statement the primary's indexes, and after the
standby has replayed the whole history the standby's, must equal
``{current key: RowId}`` read from the blocks' ``heads``, NULLs left out.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common import RowId
from repro.db import ColumnDef, Deployment, TableDef
from repro.db.schema_def import PartitionScheme
from repro.rowstore.index import UniqueViolationError

from tests.db.conftest import small_config

PARTITIONS = ["P0", "P1"]

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.booleans(), st.just(0)),
        st.tuples(
            st.sampled_from(["update_id", "update_k"]),
            st.booleans(),
            st.integers(0, 50),
        ),
        st.tuples(st.just("delete"), st.just(False), st.integers(0, 50)),
        # reuse the key another row holds: ``id`` (True) or ``k``
        st.tuples(
            st.sampled_from(["insert_dup", "update_dup"]),
            st.booleans(),
            st.integers(0, 2_500),
        ),
        st.tuples(st.just("commit"), st.just(False), st.just(0)),
        st.tuples(st.just("rollback"), st.just(False), st.just(0)),
        st.tuples(st.just("truncate"), st.just(False), st.integers(0, 1)),
    ),
    min_size=1,
    max_size=40,
)


def build() -> Deployment:
    deployment = Deployment.build(config=small_config())
    deployment.create_table(TableDef(
        "K",
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("k"),
            ColumnDef.varchar("c1"),
        ),
        rows_per_block=4,
        scheme=PartitionScheme.by_hash("id", PARTITIONS),
        indexes=("id", "k"),
    ))
    return deployment


def live_rows(table) -> dict[RowId, tuple]:
    """Each slot's newest row image, tombstones and empty slots left out."""
    rows = {}
    for partition in table.partitions.values():
        for block in partition.segment.blocks():
            for slot, head in enumerate(block.heads):
                if head >= 0 and block.values[head] is not None:
                    rows[RowId(block.dba, slot)] = block.values[head]
    return rows


def assert_indexes_match_heap(table) -> dict:
    rows = live_rows(table)
    expected = {}
    for column, index in table.indexes.items():
        i = table.schema.column_index(column)
        keyed = {v[i]: rowid for rowid, v in rows.items() if v[i] is not None}
        assert len(keyed) == sum(v[i] is not None for v in rows.values())
        assert len(index._map) == len(keyed), column
        for key, rowid in keyed.items():
            assert index.search(key) == rowid, (column, key)
        assert index.search(None) is None
        expected[column] = keyed
    return expected


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS)
# a NULL key beside a non-NULL one: the B+-tree this index replaced raised
# comparing them, after the row was stored and before its redo was made
@example(ops=[("insert", False, 0), ("insert", True, 0), ("commit", False, 0)])
# a key moved to NULL and back by a rollback
@example(ops=[
    ("insert", False, 0), ("commit", False, 0), ("update_k", True, 0),
    ("rollback", False, 0),
])
# a delete, then TRUNCATE of both partitions around a rolled-back insert
@example(ops=[
    ("insert", False, 0), ("insert", False, 0), ("delete", False, 0),
    ("truncate", False, 0), ("insert", True, 0), ("rollback", False, 0),
    ("truncate", False, 1),
])
# ROADMAP 17's repro: a second row with a committed row's key is refused,
# so deleting the row the index points at cannot orphan a live one
@example(ops=[
    ("insert", False, 0), ("commit", False, 0), ("insert_dup", True, 0),
    ("commit", False, 0), ("delete", False, 0), ("commit", False, 0),
])
# a key moved onto another row's, then onto the row's own
@example(ops=[
    ("insert", False, 0), ("insert", False, 0), ("update_dup", False, 50),
    ("update_dup", False, 0), ("rollback", False, 0),
])
def test_every_index_equals_the_current_keys_on_both_roles(ops):
    deployment = build()
    primary = deployment.primary
    table = primary.catalog.table("K")
    fresh = iter(range(1, 10_000))
    txn = None

    def active():
        nonlocal txn
        if txn is None or not txn.is_active:
            txn = primary.begin()
        return txn

    for kind, null, pick in ops:
        rows = sorted(live_rows(table).items())
        if kind == "insert":
            key = None if null else -next(fresh)
            primary.insert(active(), "K", (next(fresh), key, "x"))
        elif kind in ("update_id", "update_k") and rows:
            rowid = rows[pick % len(rows)][0]
            if kind == "update_id":
                changes = {"id": next(fresh)}
            else:
                changes = {"k": None if null else -next(fresh)}
            primary.update(active(), "K", rowid, changes)
        elif kind == "delete" and rows:
            primary.delete(active(), "K", rows[pick % len(rows)][0])
        elif kind in ("insert_dup", "update_dup") and rows:
            column = "id" if null else "k"
            i = table.schema.column_index(column)
            held = [(v[i], r) for r, v in rows if v[i] is not None]
            if held:
                key, holder = held[pick % len(held)]
                target = rows[pick // 50 % len(rows)][0]
                refused = kind == "insert_dup" or target != holder
                statement = active()
                log = primary.redo_logs[0]
                before = len(log)
                try:
                    if kind == "insert_dup":
                        values = [next(fresh), -next(fresh), "x"]
                        values[i] = key
                        primary.insert(statement, "K", tuple(values))
                    else:
                        primary.update(statement, "K", target, {column: key})
                except UniqueViolationError:
                    assert refused
                    assert len(log) == before  # refused before any redo
                else:
                    assert not refused
        elif kind == "commit" and txn is not None and txn.is_active:
            primary.commit(txn)
        elif kind == "rollback" and txn is not None and txn.is_active:
            primary.rollback(txn)
        elif kind == "truncate":
            if txn is not None and txn.is_active:
                primary.commit(txn)  # DDL commits the open transaction
            primary.truncate_table("K", PARTITIONS[pick])
        assert_indexes_match_heap(table)
    if txn is not None and txn.is_active:
        primary.commit(txn)
    deployment.catch_up()
    on_primary = assert_indexes_match_heap(table)
    on_standby = assert_indexes_match_heap(
        deployment.standby.catalog.table("K")
    )
    assert on_standby == on_primary
