"""Tests for the IMCS store, population engine and scan engine."""

import pytest

from repro.common import NotInMemoryError, TransactionId
from repro.common.config import IMCSConfig
from repro.imcs import (
    IMCU,
    InMemoryColumnStore,
    PopulationEngine,
    Predicate,
    ScanEngine,
)
from repro.imcs.population import PopulationWorker
from repro.sim import Scheduler

from tests.helpers import unit_covering
from tests.imcs.conftest import load_rows


def make_engine(store, txns, clock, config=None):
    return PopulationEngine(
        store, txns,
        snapshot_capture=lambda: clock.current,
        config=config or IMCSConfig(imcu_target_rows=16),
    )


def drain(engine, max_tasks=1000):
    for __ in range(max_tasks):
        if engine.run_one_task() is None:
            break


class TestStore:
    def test_enable_and_segment_lookup(self, wide_table, txns):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        oid = wide_table.default_partition.object_id
        assert store.is_enabled(oid)
        assert store.segment(oid).table is wide_table

    def test_segment_unknown_object_raises(self):
        with pytest.raises(NotInMemoryError):
            InMemoryColumnStore().segment(12345)

    def test_disable_drops_units(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        load_rows(wide_table, txns, clock, 10)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        oid = wide_table.default_partition.object_id
        assert store.populated_rows == 10
        store.disable(oid)
        assert not store.is_enabled(oid)
        assert store.populated_rows == 0

    def test_invalidation_routing(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        __, rowids = load_rows(wide_table, txns, clock, 10)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        oid = wide_table.default_partition.object_id
        store.invalidate(oid, rowids[0].dba, (rowids[0].slot,), scn=500)
        smu = unit_covering(store, oid, rowids[0].dba)
        assert smu.invalid_count == 1

    def test_invalidation_before_population_is_parked_then_applied(
        self, wide_table, txns, clock
    ):
        """The paper's 'SMU has not been created yet' case: records park in
        the pending list and apply at registration if newer than the
        snapshot."""
        store = InMemoryColumnStore()
        store.enable(wide_table)
        __, rowids = load_rows(wide_table, txns, clock, 10)
        oid = wide_table.default_partition.object_id
        future_scn = clock.current + 100
        store.invalidate(oid, rowids[0].dba, (rowids[0].slot,), scn=future_scn)
        assert store.segment(oid).pending  # parked

        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        smu = unit_covering(store, oid, rowids[0].dba)
        assert smu.invalid_count == 1  # applied at registration
        assert not store.segment(oid).pending

    def test_old_pending_invalidation_not_applied(self, wide_table, txns, clock):
        """Pending records at or below the IMCU snapshot are already in the
        data and must not invalidate."""
        store = InMemoryColumnStore()
        store.enable(wide_table)
        __, rowids = load_rows(wide_table, txns, clock, 10)
        oid = wide_table.default_partition.object_id
        old_scn = clock.current  # snapshot will be >= this
        store.invalidate(oid, rowids[0].dba, (rowids[0].slot,), scn=old_scn)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        smu = unit_covering(store, oid, rowids[0].dba)
        assert smu.invalid_count == 0

    def test_repopulation_swap_preserves_newer_invalidations(
        self, wide_table, txns, clock
    ):
        """An invalidation recorded after a replacement IMCU's snapshot was
        captured must carry over into the new SMU -- otherwise the swap
        silently forgets the change and the unit serves stale data forever
        (found by the rac_chaos partition scenario)."""
        from repro.imcs.imcu import IMCU

        store = InMemoryColumnStore()
        store.enable(wide_table)
        __, rowids = load_rows(wide_table, txns, clock, 10)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        oid = wide_table.default_partition.object_id
        old_unit = unit_covering(store, oid, rowids[0].dba)
        stale_snapshot = clock.current
        # a commit after the replacement's snapshot invalidates one row
        store.invalidate(
            oid, rowids[0].dba, (rowids[0].slot,), scn=stale_snapshot + 100
        )
        assert old_unit.invalid_count == 1

        replacement = IMCU.build(
            wide_table.default_partition.segment, wide_table.schema,
            wide_table.tenant, list(old_unit.imcu.covered_dbas),
            stale_snapshot, txns,
        )
        new_smu = store.register_unit(replacement)
        assert unit_covering(store, oid, rowids[0].dba) is new_smu
        assert new_smu.invalid_count == 1  # carried across the swap

    def test_repopulation_swap_at_covering_snapshot_carries_nothing(
        self, wide_table, txns, clock
    ):
        """A replacement built at a snapshot at or past the last
        invalidation already contains the current data: nothing carries."""
        from repro.imcs.imcu import IMCU

        store = InMemoryColumnStore()
        store.enable(wide_table)
        __, rowids = load_rows(wide_table, txns, clock, 10)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        oid = wide_table.default_partition.object_id
        old_unit = unit_covering(store, oid, rowids[0].dba)
        inval_scn = clock.current + 100
        store.invalidate(oid, rowids[0].dba, (rowids[0].slot,), scn=inval_scn)

        replacement = IMCU.build(
            wide_table.default_partition.segment, wide_table.schema,
            wide_table.tenant, list(old_unit.imcu.covered_dbas),
            inval_scn, txns,
        )
        new_smu = store.register_unit(replacement)
        assert new_smu.invalid_count == 0

    def test_invalidate_tenant_coarse(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        load_rows(wide_table, txns, clock, 10)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        touched = store.invalidate_tenant(wide_table.tenant, scn=999)
        assert touched > 0
        oid = wide_table.default_partition.object_id
        assert all(s.fully_invalid for s in store.segment(oid).live_units())

    def test_invalidate_disabled_object_is_noop(self, wide_table):
        store = InMemoryColumnStore()
        store.invalidate(999, 1, (0,), scn=5)  # must not raise

    def test_pool_capacity_limits_population(self, wide_table, txns, clock):
        store = InMemoryColumnStore(pool_size_bytes=1)  # absurdly small
        store.enable(wide_table)
        load_rows(wide_table, txns, clock, 50)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        assert store.populated_rows == 0
        assert engine.capacity_skips > 0


class TestPopulationEngine:
    def test_chunking_creates_multiple_units(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        load_rows(wide_table, txns, clock, 100)  # 13 blocks of 8
        engine = make_engine(store, txns, clock)  # 16 rows/IMCU = 2 blocks
        n_tasks = engine.schedule_all()
        assert n_tasks == 7
        drain(engine)
        oid = wide_table.default_partition.object_id
        assert len(store.segment(oid).live_units()) == 7
        assert store.populated_rows == 100

    def test_schedule_is_idempotent(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        load_rows(wide_table, txns, clock, 20)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        assert engine.schedule_all() == 0  # everything already in flight
        drain(engine)
        assert engine.schedule_all() == 0  # everything covered

    def test_new_extents_picked_up(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        load_rows(wide_table, txns, clock, 20)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        before = store.populated_rows
        load_rows(wide_table, txns, clock, 30)
        engine.schedule_all()
        drain(engine)
        assert store.populated_rows >= before + 16  # new chunks landed

    def test_quiesce_blocked_capture_retries(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        load_rows(wide_table, txns, clock, 10)
        blocked = {"on": True}

        def capture():
            return None if blocked["on"] else clock.current

        engine = PopulationEngine(store, txns, capture,
                                  IMCSConfig(imcu_target_rows=16))
        engine.schedule_all()
        assert engine.run_one_task() is None
        assert engine.quiesce_retries == 1
        blocked["on"] = False
        drain(engine)
        assert store.populated_rows == 10

    def test_repopulation_after_invalidation(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        xid, rowids = load_rows(wide_table, txns, clock, 16)
        config = IMCSConfig(
            imcu_target_rows=16,
            repopulate_invalid_fraction=0.25,
            repopulate_min_interval=0.0,
        )
        engine = make_engine(store, txns, clock, config)
        engine.schedule_all()
        drain(engine)
        oid = wide_table.default_partition.object_id

        # update 8 of 16 rows -> 50% invalid
        writer = TransactionId(1, 77777)
        for rowid in rowids[:8]:
            wide_table.update_row(rowid, {"n1": -1.0}, writer, clock.next(), txns)
        txns.commit(writer, clock.next())
        for rowid in rowids[:8]:
            store.invalidate(oid, rowid.dba, (rowid.slot,), clock.current)

        assert engine.check_repopulation(now=1.0) == 1
        drain(engine)
        assert engine.repopulations == 1
        smu = unit_covering(store, oid, rowids[0].dba)
        assert smu.invalid_count == 0  # fresh unit
        assert smu.imcu.snapshot_scn >= clock.current - 1

    def test_worker_actor_populates_in_background(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        load_rows(wide_table, txns, clock, 40)
        engine = make_engine(store, txns, clock)
        sched = Scheduler()
        sched.add_actor(PopulationWorker(engine, sweep=True))
        sched.run_until(1.0)
        assert store.populated_rows == 40


class TestScanEngine:
    def populated(self, wide_table, txns, clock, n=40):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        result = load_rows(wide_table, txns, clock, n)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        return store, result

    def test_scan_equals_rowstore_scan(self, wide_table, txns, clock):
        store, __ = self.populated(wide_table, txns, clock)
        scan = ScanEngine(store, txns)
        snapshot = clock.current
        got = sorted(scan.scan(wide_table, snapshot).rows)
        expected = sorted(v for __, v in wide_table.full_scan(snapshot, txns))
        assert got == expected

    def test_predicate_filtering(self, wide_table, txns, clock):
        store, __ = self.populated(wide_table, txns, clock)
        scan = ScanEngine(store, txns)
        result = scan.scan(
            wide_table, clock.current, [Predicate.eq("c1", "val3")]
        )
        assert len(result.rows) == 8  # ids 3, 8, 13, ... of 40
        assert all(row[2] == "val3" for row in result.rows)
        assert result.stats.imcus_used > 0
        assert result.stats.fallback_rows == 0

    def test_numeric_range_predicate(self, wide_table, txns, clock):
        store, __ = self.populated(wide_table, txns, clock)
        scan = ScanEngine(store, txns)
        result = scan.scan(
            wide_table, clock.current, [Predicate.between("n1", 100, 200)]
        )
        assert sorted(r[0] for r in result.rows) == list(range(10, 21))

    def test_storage_index_prunes(self, wide_table, txns, clock):
        store, __ = self.populated(wide_table, txns, clock)
        scan = ScanEngine(store, txns)
        result = scan.scan(
            wide_table, clock.current, [Predicate.eq("n1", 99999)]
        )
        assert result.rows == []
        assert result.stats.imcus_pruned > 0

    def test_invalid_rows_served_from_rowstore(self, wide_table, txns, clock):
        store, (xid, rowids) = self.populated(wide_table, txns, clock)
        oid = wide_table.default_partition.object_id
        writer = TransactionId(1, 88888)
        wide_table.update_row(rowids[0], {"n1": -5.0}, writer, clock.next(), txns)
        txns.commit(writer, clock.next())
        store.invalidate(oid, rowids[0].dba, (rowids[0].slot,), clock.current)

        scan = ScanEngine(store, txns)
        result = scan.scan(wide_table, clock.current, [Predicate.eq("n1", -5.0)])
        assert len(result.rows) == 1
        assert result.rows[0][0] == 0
        assert result.stats.fallback_rows >= 1

    def test_stale_imcu_value_not_served(self, wide_table, txns, clock):
        store, (xid, rowids) = self.populated(wide_table, txns, clock)
        oid = wide_table.default_partition.object_id
        writer = TransactionId(1, 88889)
        wide_table.update_row(rowids[0], {"n1": -5.0}, writer, clock.next(), txns)
        txns.commit(writer, clock.next())
        store.invalidate(oid, rowids[0].dba, (rowids[0].slot,), clock.current)

        scan = ScanEngine(store, txns)
        # old value was 0.0: must NOT match anymore at the new snapshot
        result = scan.scan(wide_table, clock.current, [Predicate.eq("n1", 0.0)])
        assert all(row[0] != 0 for row in result.rows)

    def test_edge_rows_from_rowstore(self, wide_table, txns, clock):
        store, __ = self.populated(wide_table, txns, clock, n=20)
        load_rows(wide_table, txns, clock, 5)  # appended after population
        scan = ScanEngine(store, txns)
        result = scan.scan(wide_table, clock.current)
        assert len(result.rows) == 25
        assert result.stats.rowstore_rows > 0

    def test_snapshot_older_than_imcu_falls_back(self, wide_table, txns, clock):
        store = InMemoryColumnStore()
        store.enable(wide_table)
        load_rows(wide_table, txns, clock, 10)
        early_snapshot = clock.current
        load_rows(wide_table, txns, clock, 10)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)  # IMCU snapshot is *after* early_snapshot
        scan = ScanEngine(store, txns)
        result = scan.scan(wide_table, early_snapshot)
        assert len(result.rows) == 10
        assert result.stats.imcus_unusable > 0

    def test_scan_without_imcs_is_pure_rowstore(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 10)
        scan = ScanEngine(None, txns)
        result = scan.scan(wide_table, clock.current)
        assert len(result.rows) == 10
        assert result.stats.imcs_rows == 0

    def test_imcs_cost_lower_than_rowstore_cost(self, wide_table, txns, clock):
        store, __ = self.populated(wide_table, txns, clock, n=40)
        snapshot = clock.current
        with_imcs = ScanEngine(store, txns).scan(wide_table, snapshot)
        without = ScanEngine(None, txns).scan(wide_table, snapshot)
        assert with_imcs.stats.cost_seconds < without.stats.cost_seconds / 10

    def test_projection_subset(self, wide_table, txns, clock):
        store, __ = self.populated(wide_table, txns, clock, n=10)
        scan = ScanEngine(store, txns)
        result = scan.scan(wide_table, clock.current, columns=["c1"])
        assert all(len(row) == 1 for row in result.rows)

    def test_partial_column_unit_unusable_for_wide_projection(
        self, wide_table, txns, clock
    ):
        store = InMemoryColumnStore()
        store.enable(wide_table, columns=["id", "n1"])
        load_rows(wide_table, txns, clock, 10)
        engine = make_engine(store, txns, clock)
        engine.schedule_all()
        drain(engine)
        scan = ScanEngine(store, txns)
        result = scan.scan(wide_table, clock.current)  # needs c1 too
        assert len(result.rows) == 10
        assert result.stats.imcus_unusable > 0
        narrow = scan.scan(wide_table, clock.current, columns=["id", "n1"])
        assert narrow.stats.imcus_used > 0
