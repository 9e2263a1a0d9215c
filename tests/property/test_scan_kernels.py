"""Property: the vectorised scan kernels equal a naive per-row scan.

The scan engine's fast paths -- cached SMU validity masks, batch column
gathers, compiled predicate matchers, block-grouped reconcile through
``visible_values_batch`` -- must be row-for-row equivalent to the obvious
reference implementation: walk every block slot, resolve the visible
version with the per-row :func:`repro.rowstore.cr.visible_values`, apply
predicates with ``tests/naive_predicate.py::eval_row`` and project by
schema index.

Hypothesis drives committed and uncommitted updates, deletes, edge rows
inserted after population, spurious row invalidations and whole-block
invalidations (both safe: invalidation is monotone), plus random
predicates and projections.  Every query then runs again at the same
snapshot after random events a QuerySCN allows between two queries --
apply above it, an invalidation flushed, an edge slot appended, an open
writer committing -- and must equal a scan whose tail images were
discarded: rows in order, every ``ScanStats`` field, ``cost_seconds``
bit for bit.

A second property covers the scan's edge step.  The engine visits only a
unit's *open* blocks -- those captured short of their capacity
(``IMCU.open_blocks``) -- where it used to probe every covered block; the
probe-everything walk lives here, as :func:`naive_edge_blocks`, and the
two must name the same blocks after every step of histories that leave
full blocks, a non-full tail, an insert uncommitted at population
mid-block, a rolled-back hole, a wiped block and a checkpoint-rebuilt
unit.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common import SCNClock, TransactionId
from repro.common.config import IMCSConfig
from repro.imcs import (
    InMemoryColumnStore,
    PopulationEngine,
    Predicate,
    ScanEngine,
)
from repro.restart import UnitCheckpoint
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table
from repro.rowstore.cr import visible_values

from tests.naive_predicate import eval_row

COLUMNS = ["id", "n1", "c1"]


def build_table() -> tuple[Table, SCNClock]:
    schema = Schema(
        [
            Column("id", ColumnType.NUMBER, nullable=False),
            Column("n1", ColumnType.NUMBER),
            Column("c1", ColumnType.VARCHAR2),
        ]
    )
    oid = itertools.count(700)
    table = Table(
        "T", schema, BlockStore(),
        object_id_allocator=lambda: next(oid), rows_per_block=4,
    )
    return table, SCNClock()


class TxnView:
    def __init__(self) -> None:
        self._commits: dict[TransactionId, int] = {}

    def commit(self, xid, scn):
        self._commits[xid] = scn

    def commit_scn_of(self, xid):
        return self._commits.get(xid)


def populate_all(store, txns, clock):
    engine = PopulationEngine(
        store, txns, lambda: clock.current,
        IMCSConfig(imcu_target_rows=8),
    )
    engine.schedule_all()
    while engine.run_one_task() is not None:
        pass


def reference_scan(table, txns, snapshot, predicates, names) -> list[tuple]:
    """Naive per-row scan: per-slot CR walk, no vectorised kernels."""
    schema = table.schema
    indices = [schema.column_index(name) for name in names]
    rows = []
    for partition in table.partitions.values():
        segment = partition.segment
        for dba in segment.dbas:
            block = segment._store.get_optional(dba)
            if block is None:
                continue
            for slot in range(block.used_slots):
                values = visible_values(block, slot, snapshot, txns)
                if values is None:
                    continue
                if all(eval_row(p, values, schema) for p in predicates):
                    rows.append(tuple(values[i] for i in indices))
    return rows


PREDICATE_CHOICES = [
    [],
    [Predicate.eq("n1", 20.0)],
    [Predicate.gt("id", 10)],
    [Predicate.between("id", 3, 30)],
    [Predicate.is_null("c1")],
    [Predicate.is_not_null("n1"), Predicate.le("id", 25)],
]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_vectorised_scan_matches_reference(data):
    table, clock = build_table()
    txns = TxnView()

    n = data.draw(st.integers(8, 40), label="n_rows")
    loader = TransactionId(1, 90_000)
    rowids = []
    for i in range(n):
        c1 = None if i % 7 == 0 else f"val{i % 5}"
        __, rowid = table.insert_row((i, i * 10.0, c1), loader, clock.next())
        rowids.append(rowid)
    txns.commit(loader, clock.next())

    store = InMemoryColumnStore()
    store.enable(table)
    populate_all(store, txns, clock)
    oid = table.default_partition.object_id

    # -- post-population history -------------------------------------
    indices = data.draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n),
        label="touched_rows",
    )
    updated = indices[: len(indices) // 2]
    deleted = indices[len(indices) // 2:]

    open_writer = None
    if updated:
        committed = data.draw(st.booleans(), label="update_committed")
        writer = TransactionId(1, 90_001)
        for i in updated:
            table.update_row(
                rowids[i], {"n1": i * 10.0 + 0.5}, writer, clock.next(), txns
            )
        if committed:
            txns.commit(writer, clock.next())
        else:
            open_writer = writer
        # The maintenance contract only requires invalidation for
        # *committed* changes; invalidating uncommitted ones too is the
        # monotone-safety case.
        if committed or data.draw(st.booleans(), label="spurious_updates"):
            for i in updated:
                store.invalidate(
                    oid, rowids[i].dba, (rowids[i].slot,), clock.current
                )

    if deleted:
        deleter = TransactionId(1, 90_002)
        for i in deleted:
            table.delete_row(rowids[i], deleter, clock.next(), txns)
        txns.commit(deleter, clock.next())
        for i in deleted:
            store.invalidate(
                oid, rowids[i].dba, (rowids[i].slot,), clock.current
            )

    # edge rows: appear in covered blocks after the IMCU snapshot; the
    # captured-slot watermark must route them through the row store
    n_edge = data.draw(st.integers(0, 6), label="edge_rows")
    if n_edge:
        edge_writer = TransactionId(1, 90_003)
        for j in range(n_edge):
            table.insert_row(
                (1000 + j, 20.0, f"edge{j}"), edge_writer, clock.next()
            )
        txns.commit(edge_writer, clock.next())

    # spurious invalidations never change the answer (monotonicity)
    segment = table.default_partition.segment
    extra_rows = data.draw(
        st.lists(st.integers(0, n - 1), max_size=5), label="extra_invalid"
    )
    for i in extra_rows:
        store.invalidate(oid, rowids[i].dba, (rowids[i].slot,), clock.current)
    all_dbas = segment.dbas
    block_invalid = data.draw(
        st.lists(
            st.integers(0, len(all_dbas) - 1), unique=True, max_size=3
        ),
        label="invalid_blocks",
    )
    for b in block_invalid:
        store.invalidate(oid, all_dbas[b], (), clock.current)

    predicates = data.draw(
        st.sampled_from(PREDICATE_CHOICES), label="predicates"
    )
    names = data.draw(
        st.sampled_from(
            [COLUMNS, ["id"], ["n1", "id"], ["c1", "n1"]]
        ),
        label="projection",
    )

    snapshot = clock.current
    engine = ScanEngine(store, txns)
    got = engine.scan(table, snapshot, predicates, columns=names)
    expected = reference_scan(table, txns, snapshot, predicates, names)
    assert sorted(got.rows, key=repr) == sorted(expected, key=repr)

    # the same query again at the same snapshot, after what may happen
    # between two queries at one QuerySCN: the units' tail images answer
    # exactly as a fresh Consistent Read walk does
    events = data.draw(
        st.lists(
            st.sampled_from(["apply", "invalidate", "edge", "commit"]),
            max_size=4,
        ),
        label="between_scans",
    )
    for k, event in enumerate(events):
        i = data.draw(st.integers(0, n - 1), label="row")
        if event == "apply":  # redo applied above the snapshot
            xid = TransactionId(1, 90_010 + k)
            table.apply_update(
                oid, rowids[i].dba, rowids[i].slot, (i, -1.0, "applied"),
                ("n1", "c1"), xid, clock.next(),
            )
            txns.commit(xid, clock.next())
        elif event == "invalidate":  # that redo's invalidation, flushed
            store.invalidate(
                oid, rowids[i].dba, (rowids[i].slot,), clock.current
            )
        elif event == "edge":  # a slot appended above the snapshot
            xid = TransactionId(1, 90_020 + k)
            table.insert_row((2000 + k, 20.0, "late"), xid, clock.next())
            if data.draw(st.booleans(), label="edge_committed"):
                txns.commit(xid, clock.next())
        elif open_writer is not None:  # the open writer commits above it
            txns.commit(open_writer, clock.next())
            open_writer = None
    again = engine.scan(table, snapshot, predicates, columns=names)
    for smu in store.segment(oid).live_units():  # discard the images
        smu.restore_validity(*smu.snapshot_validity())
    cold = engine.scan(table, snapshot, predicates, columns=names)
    assert again.rows == cold.rows
    assert again.stats == cold.stats
    assert again.stats.cost_seconds.hex() == cold.stats.cost_seconds.hex()
    assert sorted(again.rows, key=repr) == sorted(expected, key=repr)
    if set(events) <= {"apply", "commit"}:  # nothing a scan counts moved
        assert again.rows == got.rows and again.stats == got.stats

    # scanning at the population snapshot must also agree (old snapshot:
    # the IMCUs may be unusable, forcing the row-format path)
    early = data.draw(st.integers(1, snapshot), label="early_snapshot")
    got_early = engine.scan(table, early, predicates, columns=names)
    expected_early = reference_scan(table, txns, early, predicates, names)
    assert sorted(got_early.rows, key=repr) == sorted(
        expected_early, key=repr
    )


# ----------------------------------------------------------------------
# the edge step: open blocks == probing every covered block
# ----------------------------------------------------------------------
def naive_edge_blocks(imcu, store) -> list[tuple[int, int, int]]:
    """``(dba, captured, used now)`` of every covered block holding slots
    past the snapshot's, found the old way: by looking at all of them."""
    edges = []
    for dba, captured in imcu.captured_slots.items():
        block = store.get_optional(dba)
        if block is not None and block.used_slots > captured:
            edges.append((dba, captured, block.used_slots))
    return edges


def engine_edge_blocks(imcu, store) -> list[tuple[int, int, int]]:
    return [
        (dba, captured, block.used_slots)
        for dba, block, captured in imcu.edge_blocks(store)
    ]


def restore_from_checkpoint(store, oid) -> None:
    """Drop every unit and reinstall it from its checkpoint (instant
    restart): the same IMCU, its open set derived before whatever the
    store lost since, under a fresh SMU."""
    checkpoints = [
        UnitCheckpoint.capture(smu) for smu in store.segment(oid).live_units()
    ]
    store.drop_units(oid)
    for unit in checkpoints:
        store.restore_unit(
            unit.imcu, unit.invalid_rows, unit.invalid_blocks,
            unit.fully_invalid, unit.last_invalidation_scn,
        )


class Draws:
    """Scripted answers to ``data.draw``, in draw order: an explicit
    example for a test that draws from ``st.data()``.  Each strategy is
    still validated, so a draw hypothesis would refuse fails here too."""

    def __init__(self, *values) -> None:
        self.values = iter(values)

    def draw(self, strategy, label=None):
        strategy.validate()
        return next(self.values)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
@example(
    # one block, wholly wiped, then dropped: the last wipe finds no block
    data=Draws(1, "none", 0, ["wipe", "drop_block", "wipe"], 1, 1)
)
def test_open_block_edges_equal_probing_every_covered_block(data):
    table, clock = build_table()  # 4 slots per block, 2 blocks per unit
    txns = TxnView()
    segment = table.default_partition.segment
    blocks = segment._store
    sequence = itertools.count(91_000)
    serial = itertools.count()

    def insert(xid):
        i = next(serial)
        return table.insert_row((i, i * 10.0, f"v{i % 3}"), xid, clock.next())[1]

    def insert_committed(n):
        xid = TransactionId(1, next(sequence))
        rowids = [insert(xid) for __ in range(n)]
        txns.commit(xid, clock.next())
        if populated:  # the flush names every row a commit wrote
            for rowid in rowids:
                store.invalidate(oid, rowid.dba, (rowid.slot,), clock.current)

    populated = False

    # -- before population: full blocks, then (drawn) a slot that ends its
    #    block's settled prefix mid-block, then a (drawn) non-full tail
    insert_committed(data.draw(st.integers(1, 9), label="head_rows"))
    unsettled = data.draw(
        st.sampled_from(["none", "uncommitted", "hole"]), label="unsettled"
    )
    straggler = TransactionId(1, next(sequence))
    if unsettled != "none":
        rowid = insert(straggler)
        if unsettled == "hole":  # a rolled-back insert leaves its slot
            blocks.get(rowid.dba).undo_write(rowid.slot, straggler)
    insert_committed(data.draw(st.integers(0, 9), label="tail_rows"))

    store = InMemoryColumnStore()
    store.enable(table)
    populate_all(store, txns, clock)
    oid = table.default_partition.object_id
    populated = True
    engine = ScanEngine(store, txns)

    def check():
        units = store.segment(oid).live_units()
        for smu in units:
            imcu = smu.imcu
            assert engine_edge_blocks(imcu, blocks) == naive_edge_blocks(
                imcu, blocks
            )
            for dba, captured in imcu.captured_slots.items():
                block = blocks.get_optional(dba)
                if block is not None and captured == block.capacity:
                    assert dba not in dict(imcu.open_blocks(blocks))
        snapshot = clock.current
        if all(smu.imcu.snapshot_scn <= snapshot for smu in units):
            got = engine.scan(table, snapshot)
            expected = reference_scan(table, txns, snapshot, [], COLUMNS)
            assert sorted(got.rows, key=repr) == sorted(expected, key=repr)

    check()
    steps = data.draw(
        st.lists(
            st.sampled_from(
                ["insert", "commit_straggler", "wipe", "checkpoint", "drop_block"]
            ),
            max_size=6,
        ),
        label="steps",
    )
    for step in steps:
        if step == "insert":  # edge rows; may open a fresh (uncovered) block
            insert_committed(data.draw(st.integers(1, 5), label="edge_rows"))
        elif step == "commit_straggler":
            if unsettled == "uncommitted":
                txns.commit(straggler, clock.next())
        elif step == "checkpoint":
            restore_from_checkpoint(store, oid)
        elif not segment.dbas:
            pass  # drop_block removed the only block: nothing to pick
        elif step == "wipe":  # TRUNCATE's block-level effect, flushed
            dba = data.draw(st.sampled_from(segment.dbas), label="wiped")
            blocks.get(dba).wipe_through(clock.next())
            store.invalidate(oid, dba, (), clock.current)
        else:  # the store loses a block a unit covers
            dba = data.draw(st.sampled_from(segment.dbas), label="dropped")
            if blocks.get_optional(dba) is not None and (
                blocks.get(dba).used_slots == 0
            ):
                del blocks._blocks[dba]
                segment._dbas.remove(dba)
                segment._dba_set.discard(dba)
        check()
