"""Regression tests for two reconcile-path bugs fixed with the
vectorised kernels.

1. ``_rowstore_scan_dbas`` resolved blocks through the *default*
   partition's store instead of the scanned partition's.  Every partition
   of one table normally shares one :class:`BlockStore`, so the bug was
   latent -- but DBA counters are per-store, so two stores produce
   overlapping DBAs and the old code would silently read the wrong
   partition's blocks.

2. Row-store reconcile fetches never charged the buffer cache: the scan's
   simulated cost omitted the per-block I/O component entirely.  The fixed
   path charges ``buffer_cache.touch`` exactly once per distinct block.

Below them, the contract of the unit-wide reconcile pass (one Consistent
Read call per unit per scan, one commitSCN memo per scan, edge rows looked
for in open blocks only): what it may not change about the per-block pass
it replaced -- touches, cost, counters, row order, errors -- and what its
two new facts (the open-block set, the memo) rest on.

Then the tail image (one Consistent Read per unit per QuerySCN): a
repeat walks, looks up and touches nothing yet pays the same; each part
of its key, changed alone, forces a re-walk; morsels reuse a serial scan's
image; a swap starts without one; and an undo prune is the one change it
answers across.

Last, the engine's list of the blocks no usable unit covers: each change
that moves a block into or out of it reaches the next query, and the list
keeps no unit alive.
"""

from __future__ import annotations

import itertools
import weakref

import pytest

from repro.common import SnapshotTooOldError, TransactionId
from repro.common.config import IMCSConfig
from repro.imcs import (
    InMemoryColumnStore,
    PopulationEngine,
    Predicate,
    ScanEngine,
)
from repro.imcs import scan as scan_module
from repro.imcs.scan import (
    IMCS_COST_PER_ROW,
    ROWSTORE_COST_PER_ROW,
    merge_partials,
)
from repro.restart import UnitCheckpoint
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table
from repro.rowstore.buffer_cache import BufferCache

from tests.imcs.conftest import load_rows


def make_schema() -> Schema:
    return Schema(
        [
            Column("id", ColumnType.NUMBER, nullable=False),
            Column("n1", ColumnType.NUMBER),
            Column("c1", ColumnType.VARCHAR2),
        ]
    )


def populate_all(store, txns, clock):
    engine = PopulationEngine(
        store, txns, lambda: clock.current,
        IMCSConfig(imcu_target_rows=16),
    )
    engine.schedule_all()
    while engine.run_one_task() is not None:
        pass


def make_table(cache=None, first_oid=840):
    oid = itertools.count(first_oid)
    return Table(
        "T", make_schema(), BlockStore(),
        object_id_allocator=lambda: next(oid), rows_per_block=4,
        buffer_cache=cache,
    )


class TestPartitionStoreRouting:
    def test_rowstore_scan_reads_the_scanned_partitions_store(
        self, txns, clock
    ):
        """Partition P1 lives in its own store with DBAs that collide with
        P0's; the row-format path must read P1's blocks, not P0's."""
        oid = itertools.count(800)
        table = Table(
            "T", make_schema(), BlockStore(),
            object_id_allocator=lambda: next(oid), rows_per_block=4,
            partition_names=["P0", "P1"],
        )
        table.partition("P1").segment._store = BlockStore()

        xid = TransactionId(1, 91_000)
        for i in range(8):
            table.insert_row((i, 1.0, "p0"), xid, clock.next(), partition="P0")
        for i in range(8):
            table.insert_row(
                (100 + i, 2.0, "p1"), xid, clock.next(), partition="P1"
            )
        txns.commit(xid, clock.next())
        # the stores really do collide on DBAs -- the regression's trigger
        p0_dbas = set(table.partition("P0").segment.dbas)
        p1_dbas = set(table.partition("P1").segment.dbas)
        assert p0_dbas & p1_dbas

        engine = ScanEngine(None, txns)  # no IMCS: pure row-format scan
        rows = engine.scan(table, clock.current, columns=["id", "c1"]).rows
        assert sorted(r[0] for r in rows) == list(range(8)) + [
            100 + i for i in range(8)
        ]
        assert {r[1] for r in rows} == {"p0", "p1"}

        # scanning just P1 returns only P1's rows
        p1_rows = engine.scan(
            table, clock.current, columns=["c1"], partitions=["P1"]
        ).rows
        assert {r[0] for r in p1_rows} == {"p1"}
        assert len(p1_rows) == 8


class TestReconcileBufferCacheCharging:
    def make_cached_table(self):
        return make_table(BufferCache(), first_oid=820)

    def test_reconcile_charges_one_miss_per_distinct_block(
        self, txns, clock
    ):
        table = self.make_cached_table()
        __, rowids = load_rows(table, txns, clock, 16)
        store = InMemoryColumnStore()
        store.enable(table)
        populate_all(store, txns, clock)
        object_id = table.default_partition.object_id

        # invalidate 3 rows of one block and 1 row of another
        first = [r for r in rowids if r.dba == rowids[0].dba][:3]
        other = next(r for r in rowids if r.dba != rowids[0].dba)
        for rowid in first + [other]:
            store.invalidate(
                object_id, rowid.dba, (rowid.slot,), clock.current
            )

        # a fresh cache, not the one the load warmed: the scan starts cold
        cache = table.buffer_cache = BufferCache()
        hits0, misses0 = cache.hits, cache.misses
        engine = ScanEngine(store, txns)
        result = engine.scan(table, clock.current, [Predicate.ge("id", 0)])
        touched = (cache.hits - hits0) + (cache.misses - misses0)
        assert touched == 2  # one touch per distinct reconciled block
        assert cache.misses - misses0 == 2
        # both blocks were cold: the scan cost carries their miss cost
        assert result.stats.cost_seconds >= 2 * cache.miss_cost
        assert result.stats.fallback_rows == 4

        # second scan: blocks now resident, so no further miss cost
        hits1, misses1 = cache.hits, cache.misses
        warm = engine.scan(table, clock.current, [Predicate.ge("id", 0)])
        assert cache.misses == misses1
        assert cache.hits - hits1 == 2
        assert warm.stats.cost_seconds < result.stats.cost_seconds

    def test_cold_rowformat_scan_charges_every_block(self, txns, clock):
        table = self.make_cached_table()
        load_rows(table, txns, clock, 16)
        n_blocks = table.default_partition.segment.n_blocks
        # a fresh cache, not the one the load warmed
        cache = table.buffer_cache = BufferCache()
        misses0 = cache.misses

        engine = ScanEngine(None, txns)
        result = engine.scan(table, clock.current)
        assert cache.misses - misses0 == n_blocks
        assert result.stats.cost_seconds >= n_blocks * cache.miss_cost
        assert len(result.rows) == 16


# ----------------------------------------------------------------------
# the unit-wide reconcile pass
# ----------------------------------------------------------------------
class RecordingCache(BufferCache):
    """A buffer cache that remembers every touch, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.touched: list[tuple[int, float]] = []

    def touch(self, dba):
        cost = super().touch(dba)
        self.touched.append((dba, cost))
        return cost


class ProbeCountingStore:
    """The segment's block store, remembering which DBAs were asked for."""

    def __init__(self, real) -> None:
        self.real = real
        self.probed: list[int] = []

    def get_optional(self, dba):
        self.probed.append(dba)
        return self.real.get_optional(dba)

    def __getattr__(self, name):
        return getattr(self.real, name)


class CountingTxns:
    """A transaction view that counts commitSCN lookups per writer."""

    def __init__(self, real) -> None:
        self.real = real
        self.lookups: list[TransactionId] = []

    def commit_scn_of(self, xid):
        self.lookups.append(xid)
        return self.real.commit_scn_of(xid)


def enabled_and_populated(table, txns, clock):
    store = InMemoryColumnStore()
    store.enable(table)
    populate_all(store, txns, clock)  # 16 rows = 4 blocks per unit
    return store, table.default_partition.object_id


def discard_tail_images(store, oid):
    """Bump every unit's epoch through the public checkpoint round trip,
    so the next scan walks each tail again (the mask and the per-block
    grouping are recomputed with it)."""
    for smu in store.segment(oid).live_units():
        smu.restore_validity(*smu.snapshot_validity())


def invalidate(store, oid, rowid, scn):
    store.invalidate(oid, rowid.dba, (rowid.slot,), scn)


def update(table, txns, clock, rowid, n1, xid, commit=True):
    table.update_row(rowid, {"n1": n1}, xid, clock.next(), txns)
    if commit:
        txns.commit(xid, clock.next())


class TestOpenBlocks:
    def test_a_full_captured_block_is_never_probed_and_never_an_edge(
        self, txns, clock
    ):
        """18 rows in blocks of 4: four full blocks and a tail holding 2.
        ``captured == capacity`` can never be exceeded, so the edge step
        has no business looking at a full block -- not even once."""
        table = make_table()
        load_rows(table, txns, clock, 18)
        segment = table.default_partition.segment
        spy = segment._store = ProbeCountingStore(segment._store)
        store, __ = enabled_and_populated(table, txns, clock)
        *full, tail = segment.dbas
        for smu in store.segment(table.default_partition.object_id).live_units():
            assert [dba for dba, __ in smu.imcu.open_blocks(spy)] == [
                dba for dba in smu.imcu.covered_dbas if dba == tail
            ]
        engine = ScanEngine(store, txns)
        del spy.probed[:]
        assert len(engine.scan(table, clock.current).rows) == 18
        assert spy.probed == [tail]  # clean units: nothing else to fetch

        # the tail grows: its new rows are edge rows, found at once ...
        load_rows(table, txns, clock, 2)
        del spy.probed[:]
        result = engine.scan(table, clock.current)
        assert len(result.rows) == 20 and result.stats.fallback_rows == 2
        assert spy.probed == [tail]
        # ... and a block allocated since is nobody's edge: row-format
        load_rows(table, txns, clock, 1)
        result = engine.scan(table, clock.current)
        assert len(result.rows) == 21
        assert result.stats.rowstore_rows - result.stats.fallback_rows == 1

    def test_a_slot_that_ended_the_prefix_mid_block_keeps_the_block_open(
        self, txns, clock
    ):
        """An insert uncommitted at population and a rolled-back hole both
        stop a block's settled prefix short of ``used_slots``; the rows
        behind them are edge rows although the block is *full*."""
        table = make_table()
        blocks = table.default_partition.segment._store
        writer, straggler, undone = (
            TransactionId(1, 92_000 + i) for i in range(3)
        )
        for i in range(8):
            xid = {1: straggler, 6: undone}.get(i, writer)
            table.insert_row((i, i * 10.0, "x"), xid, clock.next())
        txns.commit(writer, clock.next())
        first, second = table.default_partition.segment.dbas
        blocks.get(second).undo_write(2, undone)  # slot 2: a hole
        store, oid = enabled_and_populated(table, txns, clock)
        (smu,) = store.segment(oid).live_units()
        assert smu.imcu.captured_slots == {first: 1, second: 2}
        assert dict(smu.imcu.open_blocks(blocks)) == {first: 1, second: 2}
        txns.commit(straggler, clock.next())
        result = ScanEngine(store, txns).scan(
            table, clock.current, columns=["id"]
        )
        # invalid rows (none), then edge rows in block order
        assert result.rows == [(0,), (4,), (5,), (1,), (2,), (3,), (7,)]
        assert result.stats.fallback_rows == 3 + 2  # the hole was asked for

    def test_a_block_missing_when_the_open_set_is_derived_counts_as_open(
        self, txns, clock
    ):
        """An instantly restarted unit is the unit that was built, open
        set and all.  A covered block the store no longer holds (wiped and
        gone while the unit sat in a checkpoint) may be materialised again
        by redo apply -- short of what the unit captured it is harmless,
        past it it is an edge, so it must stay in the set."""
        table = make_table()
        load_rows(table, txns, clock, 6)
        segment = table.default_partition.segment
        blocks = segment._store
        store, oid = enabled_and_populated(table, txns, clock)
        (smu,) = store.segment(oid).live_units()
        full, tail = segment.dbas
        assert smu.imcu.captured_slots == {full: 4, tail: 2}
        checkpoint = UnitCheckpoint.capture(smu)
        store.drop_units(oid)
        blocks.get(tail).wipe_through(clock.next())
        del blocks._blocks[tail]
        restored = store.restore_unit(
            checkpoint.imcu,
            checkpoint.invalid_rows, checkpoint.invalid_blocks,
            checkpoint.fully_invalid, checkpoint.last_invalidation_scn,
        )
        store.invalidate(oid, tail, (), clock.current)  # the wipe, flushed
        engine = ScanEngine(store, txns)
        assert len(engine.scan(table, clock.current).rows) == 4
        assert dict(restored.imcu.open_blocks(blocks)) == {tail: 2}
        xid = TransactionId(1, 92_100)
        for slot in range(3):  # redo apply brings the block back, longer
            table.apply_insert(
                oid, tail, slot, (100 + slot, 1.0, "again"), xid, clock.next()
            )
        txns.commit(xid, clock.next())
        result = engine.scan(table, clock.current, columns=["id"])
        assert sorted(result.rows) == [(0,), (1,), (2,), (3,), (100,), (101,), (102,)]


class TestOneMemoPerScan:
    def two_units(self, txns, clock):
        table = make_table()
        __, rowids = load_rows(table, txns, clock, 32)
        store, oid = enabled_and_populated(table, txns, clock)
        assert len(store.segment(oid).live_units()) == 2
        return table, rowids, store, oid

    def test_morsels_straddling_a_commit_return_the_serial_answer(
        self, txns, clock
    ):
        """A writer first seen uncommitted commits between two morsels of
        one scan (``QueryWorker`` runs one morsel per scheduler step while
        apply proceeds).  It can only have committed above the snapshot,
        so the memoised ``None`` and a fresh lookup agree -- and the writer
        is resolved once per scan, not once per morsel."""
        table, rowids, store, oid = self.two_units(txns, clock)
        writer = TransactionId(1, 93_000)
        for rowid in (rowids[1], rowids[30]):  # one row in each unit
            update(table, txns, clock, rowid, -1.0, writer, commit=False)
            store.invalidate(oid, rowid.dba, (rowid.slot,), clock.current)
        snapshot = clock.current
        counting = CountingTxns(txns)
        engine = ScanEngine(store, counting)
        serial = engine.scan(table, snapshot, columns=["id", "n1"])
        assert counting.lookups.count(writer) == 1

        del counting.lookups[:]
        discard_tail_images(store, oid)  # or the morsels would walk nothing
        first, second = engine.plan_morsels(table, snapshot, columns=["id", "n1"])
        partials = [first.run()]
        txns.commit(writer, clock.next())  # above the snapshot, mid-scan
        partials.append(second.run())
        assert [row for p in partials for row in p.rows] == serial.rows
        assert (1, 10.0) in serial.rows and (30, 300.0) in serial.rows
        assert counting.lookups.count(writer) == 1

    def test_the_memo_does_not_outlive_the_scan(self, txns, clock):
        """The next scan runs at another snapshot: what was uncommitted
        for the last one may be visible to it."""
        table, rowids, store, oid = self.two_units(txns, clock)
        writer = TransactionId(1, 93_001)
        update(table, txns, clock, rowids[5], -5.0, writer, commit=False)
        store.invalidate(oid, rowids[5].dba, (rowids[5].slot,), clock.current)
        engine = ScanEngine(store, txns)
        before = engine.scan(table, clock.current, columns=["id", "n1"])
        assert (5, 50.0) in before.rows
        txns.commit(writer, clock.next())
        after = engine.scan(table, clock.current, columns=["id", "n1"])
        assert (5, -5.0) in after.rows and (5, 50.0) not in after.rows

    def test_snapshot_too_old_surfaces_and_releases_the_pin(
        self, txns, clock
    ):
        table, rowids, store, oid = self.two_units(txns, clock)
        snapshot = clock.current
        victim = rowids[17]
        update(table, txns, clock, victim, -17.0, TransactionId(1, 93_002))
        store.invalidate(oid, victim.dba, (victim.slot,), clock.current)
        block = table.default_partition.segment._store.get(victim.dba)
        assert block.prune_undo(keep=1) == 1  # the version at ``snapshot``
        engine = ScanEngine(store, txns)
        with pytest.raises(SnapshotTooOldError):
            engine.scan(table, snapshot)
        assert len(engine.scan(table, clock.current).rows) == 32


class TestUnitWidePassKeepsThePerBlockContract:
    def churned(self, txns, clock):
        """Two units over a cached table; in the first, invalid rows in
        three blocks, a tombstone, a wiped block invalidated whole and a
        covered block the store has lost; in the second, one invalid row
        and an open tail with two edge rows."""
        cache = RecordingCache()
        table = make_table(cache)
        __, rowids = load_rows(table, txns, clock, 30)
        store, oid = enabled_and_populated(table, txns, clock)
        segment = table.default_partition.segment
        dbas = segment.dbas
        writer = TransactionId(1, 94_000)
        for i in (9, 2, 3, 28):
            table.update_row(rowids[i], {"n1": -1.0}, writer, clock.next(), txns)
        table.delete_row(rowids[1], writer, clock.next(), txns)
        txns.commit(writer, clock.next())
        for i in (9, 2, 3, 28, 1):
            store.invalidate(oid, rowids[i].dba, (rowids[i].slot,), clock.current)
        segment._store.get(dbas[3]).wipe_through(clock.next())
        store.invalidate(oid, dbas[3], (), clock.current)
        store.invalidate(oid, rowids[5].dba, (rowids[5].slot,), clock.current)
        del segment._store._blocks[rowids[5].dba]  # dbas[1] is gone
        segment._dbas.remove(rowids[5].dba)
        segment._dba_set.discard(rowids[5].dba)
        load_rows(table, txns, clock, 2)  # fills the tail: edge rows
        cache = table.buffer_cache = RecordingCache()  # every block cold
        return table, store, oid, cache, dbas

    def test_same_touches_same_order_and_a_bit_equal_cost(self, txns, clock):
        table, store, oid, cache, dbas = self.churned(txns, clock)
        first, second = store.segment(oid).live_units()
        del cache.touched[:]
        result = ScanEngine(store, txns).scan(table, clock.current)
        # per unit: invalid blocks as the SMU groups them, then edge blocks
        expected = list(first.invalid_slots_by_dba()) + list(
            second.invalid_slots_by_dba()
        ) + [dbas[7]]
        assert expected == [dbas[0], dbas[1], dbas[2], dbas[3], dbas[7], dbas[7]]
        assert [dba for dba, __ in cache.touched] == expected
        # the cost, accumulated block by block: touch, then rows * cost
        # (nothing for the rows of a block the store has lost)
        cost = per_unit = 0.0
        touches = iter(cache.touched)
        for smu, edge in ((first, 0), (second, 2)):
            cost += IMCS_COST_PER_ROW * smu.imcu.n_rows
            per_unit += IMCS_COST_PER_ROW * smu.imcu.n_rows
            slots = [
                len(slots) if dba != dbas[1] else 0
                for dba, slots in smu.invalid_slots_by_dba().items()
            ] + ([edge] if edge else [])
            paid = 0.0
            for n in slots:
                miss = next(touches)[1]
                cost += miss
                cost += ROWSTORE_COST_PER_ROW * n
                paid += miss
            per_unit += paid
            per_unit += ROWSTORE_COST_PER_ROW * sum(slots)
        assert result.stats.cost_seconds == cost  # bit for bit
        assert per_unit != cost  # which a per-unit multiply would not be

    def test_counters_count_slots_asked_for(self, txns, clock):
        """Tombstones and slots past a wiped block's end are fallback
        rows; the rows of a block the store has lost are not."""
        table, store, oid, __, dbas = self.churned(txns, clock)
        result = ScanEngine(store, txns).scan(
            table, clock.current, columns=["id"]
        )
        # unit 1: 3 in dbas[0] (one a tombstone), 1 in dbas[2], 4 past the
        # end of wiped dbas[3]; unit 2: 1 invalid + 2 edge
        assert result.stats.fallback_rows == 3 + 1 + 4 + 1 + 2
        assert result.stats.rowstore_rows == result.stats.fallback_rows
        assert result.stats.imcs_rows == 30
        # unit by unit: what the IMCU still serves, then its invalid rows
        # in position order, then its edge rows in block order (the two
        # rows that filled the tail were loaded as ids 0 and 1)
        assert [row[0] for row in result.rows] == (
            [0, 4, 6, 7, 8, 10, 11] + [2, 3, 9]
            + [*range(16, 28), 29] + [28] + [0, 1]
        )


# ----------------------------------------------------------------------
# one Consistent Read per unit per QuerySCN: the tail image
# ----------------------------------------------------------------------
class CountingWalk:
    """``visible_values_batch`` as the scan engine calls it, counted."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        real = scan_module.visible_values_batch

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(scan_module, "visible_values_batch", counted)


def assert_same_scan(got, expected) -> None:
    """Rows in order and every ``ScanStats`` field, ``cost_seconds`` bit
    for bit."""
    assert got.rows == expected.rows
    assert got.stats == expected.stats
    assert got.stats.cost_seconds.hex() == expected.stats.cost_seconds.hex()


class TestOneConsistentReadPerUnitPerQuerySCN:
    def tailed(self, txns, clock, monkeypatch):
        """Two units over a warm recording cache, each with a row-store
        tail: committed invalid rows in both, a row of the first written by
        a transaction still open, and an edge row in the second's tail
        block.  Returns the table, store, object id, the open writer, the
        rowids, the counting walk and an engine over counting lookups."""
        cache = RecordingCache()
        table = make_table(cache)
        __, rowids = load_rows(table, txns, clock, 30)
        store, oid = enabled_and_populated(table, txns, clock)
        assert len(store.segment(oid).live_units()) == 2
        writer, still_open = TransactionId(1, 95_000), TransactionId(1, 95_001)
        for i in (2, 20):
            update(table, txns, clock, rowids[i], -float(i), writer, False)
        txns.commit(writer, clock.next())
        update(table, txns, clock, rowids[9], -9.0, still_open, False)
        for i in (2, 9, 20):
            invalidate(store, oid, rowids[i], clock.current)
        load_rows(table, txns, clock, 1)  # an edge row in the tail block
        for dba in table.default_partition.segment.dbas:
            cache.touch(dba)  # every scan below sees hits only
        del cache.touched[:]
        counting = CountingTxns(txns)
        return (
            table, store, oid, still_open, rowids,
            CountingWalk(monkeypatch), ScanEngine(store, counting),
        )

    def test_a_repeat_at_the_same_snapshot_and_epoch_walks_nothing(
        self, txns, clock, monkeypatch
    ):
        table, store, oid, __, ___, walk, engine = self.tailed(
            txns, clock, monkeypatch
        )
        cache, counting = table.buffer_cache, engine.txns
        snapshot = clock.current
        first = engine.scan(table, snapshot, columns=["id", "n1"])
        assert walk.calls == 2 and counting.lookups
        assert first.stats.fallback_rows == 4
        touches = len(cache.touched)
        assert touches
        hits, misses = cache.hits, cache.misses

        del counting.lookups[:], cache.touched[:]
        second = engine.scan(table, snapshot, columns=["id", "n1"])
        assert walk.calls == 2  # no Consistent Read walk ...
        assert counting.lookups == []  # ... no commitSCN lookup ...
        assert cache.touched == []  # ... and no touch,
        # but the hits the touches would have been
        assert (cache.hits, cache.misses) == (hits + touches, misses)
        assert_same_scan(second, first)

        discard_tail_images(store, oid)
        assert_same_scan(
            engine.scan(table, snapshot, columns=["id", "n1"]), first
        )
        assert walk.calls == 4

    def test_the_image_holds_no_predicate_and_no_projection(
        self, txns, clock, monkeypatch
    ):
        """Each query runs its own matcher and projector over the image."""
        table, store, oid, __, ___, walk, engine = self.tailed(
            txns, clock, monkeypatch
        )
        snapshot = clock.current
        engine.scan(table, snapshot)
        for predicates, columns in (
            ([Predicate.lt("n1", 0.0)], ["id"]),
            ([Predicate.ge("id", 9), Predicate.le("id", 20)], ["n1", "c1"]),
            ([Predicate.eq("c1", "val0")], None),
        ):
            calls = walk.calls
            warm = engine.scan(table, snapshot, predicates, columns)
            assert walk.calls == calls
            discard_tail_images(store, oid)
            cold = engine.scan(table, snapshot, predicates, columns)
            assert_same_scan(warm, cold)
        negative = engine.scan(table, snapshot, [Predicate.lt("n1", 0.0)])
        assert [row[0] for row in negative.rows] == [2, 20]

    @pytest.mark.parametrize(
        "change", ["epoch", "snapshot", "edge_slot", "truncate"]
    )
    def test_each_key_part_forces_a_re_walk(
        self, txns, clock, monkeypatch, change
    ):
        """Every part of the key, changed alone, sends the scan back to the
        row store -- and each change alters what a stale image would
        answer, so dropping that part from the key changes a result."""
        table, store, oid, still_open, rowids, walk, engine = self.tailed(
            txns, clock, monkeypatch
        )
        segment = table.default_partition.segment
        snapshot = clock.current
        first = engine.scan(table, snapshot, columns=["id", "n1"])
        calls = walk.calls
        if change == "epoch":  # apply above the snapshot, then its flush
            xid = TransactionId(1, 95_002)
            update(table, txns, clock, rowids[25], -25.0, xid)
            invalidate(store, oid, rowids[25], clock.current)
        elif change == "snapshot":  # the open writer commits: next QuerySCN
            txns.commit(still_open, clock.next())
            snapshot = clock.current
        elif change == "edge_slot":  # a slot appended above the snapshot
            table.insert_row((99, 990.0, "late"), still_open, clock.next())
        else:  # a TRUNCATE wipe, nothing flushed to the units
            segment.truncate(clock.next())
        warm = engine.scan(table, snapshot, columns=["id", "n1"])
        assert walk.calls > calls
        discard_tail_images(store, oid)
        cold = engine.scan(table, snapshot, columns=["id", "n1"])
        assert_same_scan(warm, cold)
        assert warm.stats != first.stats or warm.rows != first.rows

    def test_a_morsel_run_after_a_serial_scan_reuses_the_image(
        self, txns, clock, monkeypatch
    ):
        table, store, oid, __, ___, walk, engine = self.tailed(
            txns, clock, monkeypatch
        )
        snapshot = clock.current
        serial = engine.scan(table, snapshot, columns=["id", "n1"])
        calls = walk.calls
        del engine.txns.lookups[:]
        morsels = engine.plan_morsels(table, snapshot, columns=["id", "n1"])
        partials = [morsel.run() for morsel in morsels]
        assert walk.calls == calls and engine.txns.lookups == []
        assert_same_scan(merge_partials(partials), serial)

    def test_an_undo_prune_between_two_scans_answers_from_the_image(
        self, txns, clock, monkeypatch
    ):
        """The one answer the image changes: a chain pruned past the
        snapshot after the tail was walked.  The image keeps answering, as
        a CR buffer outlives its undo; a fresh walk is SnapshotTooOld."""
        table, store, oid, __, rowids, walk, engine = self.tailed(
            txns, clock, monkeypatch
        )
        snapshot = clock.current
        first = engine.scan(table, snapshot, columns=["id", "n1"])
        victim = rowids[2]  # invalid, its value at the snapshot is -2.0
        assert (2, -2.0) in first.rows
        update(table, txns, clock, victim, -200.0, TransactionId(1, 95_003))
        invalidate(store, oid, victim, clock.current)  # already invalid
        block = table.default_partition.segment._store.get(victim.dba)
        assert block.prune_undo(keep=1) >= 2  # the snapshot's version too
        assert_same_scan(
            engine.scan(table, snapshot, columns=["id", "n1"]), first
        )
        discard_tail_images(store, oid)
        with pytest.raises(SnapshotTooOldError):
            engine.scan(table, snapshot, columns=["id", "n1"])

    def test_a_swap_starts_the_new_unit_without_an_image(
        self, txns, clock, monkeypatch
    ):
        """A repopulation at the query's own snapshot captures the old
        tail's rows: answered from the outgoing unit's image, they would
        come back twice."""
        table, store, oid, __, ___, ____, engine = self.tailed(
            txns, clock, monkeypatch
        )
        snapshot = clock.current
        first = engine.scan(table, snapshot, columns=["id", "n1"])
        old = store.segment(oid).live_units()
        population = PopulationEngine(
            store, txns, lambda: clock.current,
            IMCSConfig(imcu_target_rows=16, repopulate_invalid_fraction=0.05),
        )
        assert population.check_repopulation(now=1.0) == 2
        while population.run_one_task() is not None:
            pass
        new = store.segment(oid).live_units()
        assert not set(map(id, new)) & set(map(id, old))
        after = engine.scan(table, snapshot, columns=["id", "n1"])
        assert sorted(after.rows) == sorted(first.rows)
        assert after.stats.fallback_rows == 0  # everything was captured


# ----------------------------------------------------------------------
# the engine's list of blocks no usable unit covers
# ----------------------------------------------------------------------
def row_format_rows(result) -> int:
    """Row-store rows of blocks no usable unit covers."""
    return result.stats.rowstore_rows - result.stats.fallback_rows


class TestTheUncoveredBlockList:
    """The engine keeps the list per segment and recomputes it when the
    usable units, the block count or the TRUNCATE SCN change.  Each change
    below, made between two queries of one engine, must reach the second:
    it answers as an engine that never saw the first."""

    def populated(self, txns, clock, first_oid):
        """18 rows in blocks of 4 (five blocks, two slots free in the
        last), every block covered by one of two units."""
        table = make_table(first_oid=first_oid)
        __, rowids = load_rows(table, txns, clock, 18)
        store, oid = enabled_and_populated(table, txns, clock)
        assert len(store.segment(oid).live_units()) == 2
        return table, store, oid, rowids

    @pytest.mark.parametrize(
        "change", ["append", "swap", "drop", "truncate", "later_unit"]
    )
    def test_a_change_reaches_the_next_querys_row_store_leftover(
        self, txns, clock, change
    ):
        if change == "later_unit":  # the units' snapshot is above the query's
            table = make_table(first_oid=860)
            load_rows(table, txns, clock, 18)
            snapshot = clock.current
            clock.next()
            store, oid = enabled_and_populated(table, txns, clock)
            engine = ScanEngine(store, txns)
            before = engine.scan(table, clock.current)
        else:
            table, store, oid, rowids = self.populated(txns, clock, 860)
            snapshot = clock.current
            engine = ScanEngine(store, txns)
            before = engine.scan(table, snapshot)
        assert row_format_rows(before) == 0
        if change == "append":  # two edge rows, then a block of its own
            load_rows(table, txns, clock, 3)
            snapshot = clock.current
        elif change == "swap":  # rebuilt above the query's snapshot
            for rowid in (rowids[0], rowids[17]):
                invalidate(store, oid, rowid, snapshot)
            clock.next()
            population = PopulationEngine(
                store, txns, lambda: clock.current,
                IMCSConfig(
                    imcu_target_rows=16, repopulate_invalid_fraction=0.05
                ),
            )
            assert population.check_repopulation(now=1.0) == 2
            while population.run_one_task() is not None:
                pass
        elif change == "drop":
            store.drop_units(oid)
        elif change == "truncate":  # as many blocks again, none covered
            segment = table.default_partition.segment
            segment.truncate(clock.next())
            assert segment.n_blocks == 0
            load_rows(table, txns, clock, 18)
            assert segment.n_blocks == 5
            snapshot = clock.current
        after = engine.scan(table, snapshot)
        assert_same_scan(after, ScanEngine(store, txns).scan(table, snapshot))
        assert row_format_rows(after) == {
            "append": 1, "swap": 18, "drop": 18, "truncate": 18,
            "later_unit": 18,
        }[change]

    def test_the_engine_keeps_no_dropped_unit_alive(self, txns, clock):
        """The list's key holds unit ids, not units: a dropped unit is
        freed when the store lets it go, not at the engine's next query."""
        table, store, oid, __ = self.populated(txns, clock, 880)
        engine = ScanEngine(store, txns)
        engine.scan(table, clock.current)
        units = [weakref.ref(smu) for smu in store.segment(oid).live_units()]
        store.drop_units(oid)
        assert [unit() for unit in units] == [None, None]
        assert row_format_rows(engine.scan(table, clock.current)) == 18
