"""Tests for IMCU build/projection and SMU validity tracking."""

import numpy as np

from repro.common import RowId
from repro.imcs import IMCU, SMU

from tests.imcs.conftest import load_rows


def build_imcu(table, txns, clock, dbas=None, snapshot=None, columns=None):
    segment = table.default_partition.segment
    return IMCU.build(
        segment,
        table.schema,
        table.tenant,
        dbas if dbas is not None else segment.dbas,
        snapshot if snapshot is not None else clock.current,
        txns,
        inmemory_columns=columns,
    )


class TestIMCUBuild:
    def test_captures_committed_rows(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 20)
        imcu = build_imcu(wide_table, txns, clock)
        assert imcu.n_rows == 20
        assert set(imcu.column_names) == {"id", "n1", "c1"}

    def test_excludes_uncommitted_rows(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 10)
        load_rows(wide_table, txns, clock, 5, committed=False)
        imcu = build_imcu(wide_table, txns, clock)
        assert imcu.n_rows == 10

    def test_snapshot_respects_scn(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 10)
        mid_scn = clock.current
        load_rows(wide_table, txns, clock, 10)
        imcu = build_imcu(wide_table, txns, clock, snapshot=mid_scn)
        assert imcu.n_rows == 10

    def test_captured_slots_recorded(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 10)  # 8 + 2 across two blocks
        imcu = build_imcu(wide_table, txns, clock)
        segment = wide_table.default_partition.segment
        assert imcu.captured_slots[segment.dbas[0]] == 8
        assert imcu.captured_slots[segment.dbas[1]] == 2

    def test_position_of(self, wide_table, txns, clock):
        __, rowids = load_rows(wide_table, txns, clock, 5)
        imcu = build_imcu(wide_table, txns, clock)
        assert imcu.position_of(rowids[3]) == 3
        assert imcu.position_of(RowId(9999, 0)) is None

    def test_partial_column_population(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 5)
        imcu = build_imcu(wide_table, txns, clock, columns=["id", "n1"])
        assert "c1" not in imcu.column_names

    def test_projection(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 5)
        imcu = build_imcu(wide_table, txns, clock)
        rows = imcu.project_rows(np.array([0, 2]), ["c1", "id"])
        assert rows == [("val0", 0), ("val2", 2)]

    def test_storage_index_pruning(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 10)  # n1 in [0, 90]
        imcu = build_imcu(wide_table, txns, clock)
        assert imcu.prune_range("n1", 1000, 2000)
        assert imcu.prune_range("n1", None, -5)
        assert not imcu.prune_range("n1", 40, 50)

    def test_memory_bytes_positive(self, wide_table, txns, clock):
        load_rows(wide_table, txns, clock, 5)
        assert build_imcu(wide_table, txns, clock).memory_bytes > 0


class TestSMU:
    def make(self, wide_table, txns, clock, n=10):
        xid, rowids = load_rows(wide_table, txns, clock, n)
        imcu = build_imcu(wide_table, txns, clock)
        return imcu, SMU(imcu), rowids

    def test_fresh_smu_all_valid(self, wide_table, txns, clock):
        __, smu, ___ = self.make(wide_table, txns, clock)
        assert smu.valid_row_mask().all()
        assert smu.invalid_count == 0

    def test_row_invalidation(self, wide_table, txns, clock):
        __, smu, rowids = self.make(wide_table, txns, clock)
        assert smu.invalidate_row(rowids[3], scn=100)
        assert not smu.invalidate_row(rowids[3], scn=101)  # idempotent
        mask = smu.valid_row_mask()
        assert not mask[3]
        assert mask.sum() == 9
        assert smu.last_invalidation_scn == 101

    def test_uncaptured_row_invalidation_is_noop(self, wide_table, txns, clock):
        __, smu, ___ = self.make(wide_table, txns, clock)
        assert not smu.invalidate_row(RowId(9999, 1), scn=100)

    def test_block_invalidation(self, wide_table, txns, clock):
        imcu, smu, __ = self.make(wide_table, txns, clock)
        first_dba = imcu.rowids[0].dba
        smu.invalidate_block(first_dba, scn=100)
        mask = smu.valid_row_mask()
        assert mask.sum() == 2  # 8 rows in the first block invalidated
        assert smu.invalid_count == 8

    def test_full_invalidation(self, wide_table, txns, clock):
        __, smu, ___ = self.make(wide_table, txns, clock)
        smu.invalidate_fully(scn=100)
        assert not smu.valid_row_mask().any()
        assert smu.invalid_fraction == 1.0

    def test_column_invalidation(self, wide_table, txns, clock):
        __, smu, ___ = self.make(wide_table, txns, clock)
        smu.invalidate_column("n1", scn=100)
        assert not smu.columns_valid({"n1"})
        assert smu.columns_valid({"id"})
        assert not smu.serves(frozenset({"id", "n1"}))
        assert smu.serves(frozenset({"id"}))

    def test_invalid_fraction(self, wide_table, txns, clock):
        __, smu, rowids = self.make(wide_table, txns, clock)
        for rowid in rowids[:5]:
            smu.invalidate_row(rowid, scn=100)
        assert abs(smu.invalid_fraction - 0.5) < 1e-9
