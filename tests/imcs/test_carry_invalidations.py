"""Regression: a repopulation swap must carry invalidations at their
original granularity.

``_carry_invalidations`` used to collapse everything into
``invalidate_fully`` whenever the outgoing unit's last invalidation SCN
exceeded the incoming snapshot -- one stale *row* was enough to make the
freshly populated IMCU unusable until the next repopulation pass, a
population livelock under steady DML.  The fix carries row-level bits as
rows and block-level records as blocks; only a genuinely coarse outgoing
unit (``fully_invalid``) still coarse-invalidates the replacement.
"""

from __future__ import annotations

from repro.imcs.imcu import IMCU, row_keys
from repro.imcs.store import InMemoryColumnStore

from tests.helpers import row_position, unit_covering
from tests.imcs.conftest import load_rows
from tests.imcs.test_store_population import drain, make_engine


def populated_store(wide_table, txns, clock, n=24):
    store = InMemoryColumnStore()
    store.enable(wide_table)
    __, rowids = load_rows(wide_table, txns, clock, n)
    engine = make_engine(store, txns, clock)
    engine.schedule_all()
    drain(engine)
    oid = wide_table.default_partition.object_id
    return store, oid, rowids


def replacement_for(wide_table, txns, old_unit, snapshot):
    return IMCU.build(
        wide_table.default_partition.segment, wide_table.schema,
        wide_table.tenant, list(old_unit.imcu.covered_dbas),
        snapshot, txns,
    )


class TestCarryGranularity:
    def test_row_level_bits_carry_as_rows_not_coarse(
        self, wide_table, txns, clock
    ):
        store, oid, rowids = populated_store(wide_table, txns, clock)
        old_unit = unit_covering(store, oid, rowids[0].dba)
        snapshot = clock.current
        store.invalidate(
            oid, rowids[0].dba, (rowids[0].slot,), scn=snapshot + 50
        )
        store.invalidate(
            oid, rowids[1].dba, (rowids[1].slot,), scn=snapshot + 60
        )
        new_smu = store.register_unit(
            replacement_for(wide_table, txns, old_unit, snapshot)
        )
        # exactly the two stale rows, not the whole unit
        assert not new_smu.fully_invalid
        assert new_smu.invalid_count == 2
        assert new_smu.invalid_row_keys().tolist() == [
            row_keys(rowids[0].dba, rowids[0].slot),
            row_keys(rowids[1].dba, rowids[1].slot),
        ]
        assert new_smu.last_invalidation_scn == snapshot + 60

    def test_block_level_records_carry_as_blocks(
        self, wide_table, txns, clock
    ):
        store, oid, rowids = populated_store(wide_table, txns, clock)
        old_unit = unit_covering(store, oid, rowids[0].dba)
        snapshot = clock.current
        store.invalidate(oid, rowids[0].dba, (), scn=snapshot + 50)
        new_smu = store.register_unit(
            replacement_for(wide_table, txns, old_unit, snapshot)
        )
        assert not new_smu.fully_invalid
        assert rowids[0].dba in new_smu.invalid_blocks
        # the other blocks stay valid
        assert any(
            dba != rowids[0].dba for dba in new_smu.imcu.covered_dbas
        )
        assert len(new_smu.invalid_blocks) == 1

    def test_coarse_outgoing_unit_still_coarse_invalidates(
        self, wide_table, txns, clock
    ):
        store, oid, rowids = populated_store(wide_table, txns, clock)
        old_unit = unit_covering(store, oid, rowids[0].dba)
        snapshot = clock.current
        old_unit.invalidate_fully(snapshot + 50)
        new_smu = store.register_unit(
            replacement_for(wide_table, txns, old_unit, snapshot)
        )
        # no per-row detail survived: the swap must not resurrect the unit
        assert new_smu.fully_invalid

    def test_scan_serves_fresh_unit_with_carried_rows(
        self, wide_table, txns, clock
    ):
        """The carried unit stays scannable: valid rows serve from the
        IMCS, only the carried-stale rows fall back to the row store."""
        from repro.imcs.scan import ScanEngine

        store, oid, rowids = populated_store(wide_table, txns, clock)
        old_unit = unit_covering(store, oid, rowids[0].dba)
        snapshot = clock.current
        # mutate one row after the replacement snapshot, then swap
        xid2, __ = load_rows(wide_table, txns, clock, 0)
        wide_table.update_row(
            rowids[0], {"n1": -123.0}, xid2, clock.next(), txns
        )
        txns.commit(xid2, clock.next())
        store.invalidate(
            oid, rowids[0].dba, (rowids[0].slot,), scn=clock.current
        )
        new_smu = store.register_unit(
            replacement_for(wide_table, txns, old_unit, snapshot)
        )
        engine = ScanEngine(store, txns)
        result = engine.scan(wide_table, clock.current)
        by_id = {row[0]: row for row in result.rows}
        assert by_id[0][1] == -123.0  # reconciled through the row store
        assert result.stats.imcus_used > 0
        assert new_smu.invalid_count == 1


class TestCarryOntoDeltaBuiltUnit:
    """The incoming unit of a swap is usually delta-built from the very
    SMU whose newer invalidations it must inherit: the build reads the
    rows that SMU marks invalid *at its own snapshot* (they are data, not
    validity), and the swap still carries every bit newer than that."""

    def test_newer_bits_carry_and_older_ones_are_absorbed(
        self, wide_table, txns, clock
    ):
        from repro.imcs.scan import ScanEngine

        store, oid, rowids = populated_store(wide_table, txns, clock)
        old_unit = unit_covering(store, oid, rowids[0].dba)
        # committed and invalidated below the replacement's snapshot
        xid, __ = load_rows(wide_table, txns, clock, 0)
        wide_table.update_row(rowids[3], {"n1": -3.0}, xid, clock.next(), txns)
        txns.commit(xid, clock.next())
        store.invalidate(oid, rowids[3].dba, (rowids[3].slot,), clock.current)
        snapshot = clock.current
        # ...and beyond it: one row, one whole block
        xid, __ = load_rows(wide_table, txns, clock, 0)
        wide_table.update_row(rowids[5], {"n1": -5.0}, xid, clock.next(), txns)
        txns.commit(xid, clock.next())
        store.invalidate(oid, rowids[5].dba, (rowids[5].slot,), clock.current)
        other_block = next(r for r in rowids if r.dba != rowids[5].dba)
        store.invalidate(oid, other_block.dba, (), clock.current)

        incoming = IMCU.build(
            wide_table.default_partition.segment, wide_table.schema,
            wide_table.tenant, list(old_unit.imcu.covered_dbas),
            snapshot, txns, base=old_unit,
        )
        # everything but the three rows / one block the SMU marks invalid
        assert incoming.rows_reused == old_unit.imcu.n_rows - (
            old_unit.invalid_count
        )
        assert incoming.rows_reused > 0
        assert incoming.column("n1").take(
            [row_position(incoming, rowids[3])]
        ) == [-3.0]  # absorbed: read at the snapshot
        assert incoming.column("n1").take(
            [row_position(incoming, rowids[5])]
        ) == [50.0]  # as of the snapshot; the newer value must reconcile
        new_smu = store.register_unit(incoming)
        assert not new_smu.fully_invalid
        assert new_smu.invalid_blocks == frozenset({other_block.dba})
        # the old row mask, verbatim: the absorbed bit rides along, which
        # costs one row-store fetch and is always safe
        assert rowids[3].dba == rowids[5].dba
        assert new_smu.invalid_row_keys().tolist() == [
            row_keys(rowids[3].dba, rowids[3].slot),
            row_keys(rowids[5].dba, rowids[5].slot),
        ]
        result = ScanEngine(store, txns).scan(wide_table, clock.current)
        by_id = {row[0]: row for row in result.rows}
        assert by_id[3][1] == -3.0 and by_id[5][1] == -5.0
        assert len(by_id) == len(rowids)
        assert result.stats.imcus_used > 0


def test_edge_row_invalidated_before_a_swap_that_widens_over_it(
    wide_table, txns, clock
):
    """The worklink drains over several actor steps before the QuerySCN it
    belongs to is published, so a repopulation can run in between, at the
    still-current QuerySCN.  Full and delta builds are alike in this: the
    outgoing SMU parks the invalidation of the slot it never captured, and
    the swap hands it to the unit that does."""
    from repro.imcs.scan import ScanEngine

    store, oid, rowids = populated_store(wide_table, txns, clock, n=4)
    old_unit = unit_covering(store, oid, rowids[0].dba)
    # inserted and committed after the unit's snapshot: an edge row
    __, (edge,) = load_rows(wide_table, txns, clock, 1)
    assert edge.dba == rowids[0].dba
    assert row_position(old_unit.imcu, edge) is None
    snapshot = clock.current  # the published QuerySCN
    # updated; the flush for the *next* QuerySCN lands first...
    xid, __ = load_rows(wide_table, txns, clock, 0)
    wide_table.update_row(edge, {"n1": -1.0}, xid, clock.next(), txns)
    txns.commit(xid, clock.next())
    store.invalidate(oid, edge.dba, (edge.slot,), clock.current)
    # ...then a repopulation at the current one widens the unit over it
    for base in (None, old_unit):
        incoming = IMCU.build(
            wide_table.default_partition.segment, wide_table.schema,
            wide_table.tenant, list(old_unit.imcu.covered_dbas),
            snapshot, txns, base=base,
        )
        assert row_position(incoming, edge) is not None
    store.register_unit(incoming)
    # the next QuerySCN is published: a scan must see the update
    result = ScanEngine(store, txns).scan(wide_table, clock.current)
    assert sorted(row[1] for row in result.rows)[0] == -1.0


def test_an_uncaptured_slot_parks_again_until_a_unit_captures_it(
    wide_table, txns, clock
):
    store, oid, rowids = populated_store(wide_table, txns, clock, n=4)
    old_unit = unit_covering(store, oid, rowids[0].dba)
    before_insert = clock.current
    __, (edge,) = load_rows(wide_table, txns, clock, 1)
    inserted = clock.current
    xid, __ = load_rows(wide_table, txns, clock, 0)
    wide_table.update_row(edge, {"n1": -1.0}, xid, clock.next(), txns)
    txns.commit(xid, clock.next())
    store.invalidate(oid, edge.dba, (edge.slot,), clock.current)
    parked = {row_keys(edge.dba, edge.slot): clock.current}
    assert old_unit.uncaptured == parked
    # a replacement that still misses the slot parks it again...
    middle = store.register_unit(
        replacement_for(wide_table, txns, old_unit, before_insert)
    )
    assert row_position(middle.imcu, edge) is None
    assert middle.uncaptured == parked
    assert middle.invalid_count == 0
    # ...and the first one that captures it marks it invalid
    last = store.register_unit(
        replacement_for(wide_table, txns, middle, inserted)
    )
    assert row_position(last.imcu, edge) is not None
    assert last.invalid_row_keys().tolist() == list(parked)
    assert not last.uncaptured
