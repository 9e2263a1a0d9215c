"""Tests for data blocks, segments and the block store."""

import pytest

from repro.common import RowId, TransactionId
from repro.rowstore import BlockStore, DataBlock, Segment
from repro.rowstore.block import END, PRUNED

from tests.helpers import current_rows

X1 = TransactionId(1, 1)
X2 = TransactionId(1, 2)


class TestDataBlock:
    def test_append_until_full(self):
        block = DataBlock(dba=1, object_id=9, capacity=2)
        assert block.append_row((1,), X1, 10) == RowId(1, 0)
        assert block.append_row((2,), X1, 11) == RowId(1, 1)
        assert not block.has_free_slot
        with pytest.raises(RuntimeError):
            block.append_row((3,), X1, 12)

    def test_apply_at_slot_materialises_gaps(self):
        """Standby apply can hit slot 2 before slots 0-1 (different txns,
        same worker, but CVs interleaved) -- empty chains are created."""
        block = DataBlock(1, 9, 4)
        block.apply_at_slot(2, (30,), X1, 10)
        assert block.used_slots == 3
        assert block.current(2) == (30,)
        assert block.current(0) is None
        assert block.heads[:2] == [END, END]

    def test_apply_beyond_capacity_raises(self):
        block = DataBlock(1, 9, 2)
        with pytest.raises(RuntimeError):
            block.apply_at_slot(5, (1,), X1, 10)

    def test_rollback_transaction(self):
        block = DataBlock(1, 9, 4)
        block.append_row((1,), X1, 10)
        block.append_row((2,), X2, 11)
        block.write_slot(0, (3,), X2, 12)
        assert block.undo_write(0, X2) and block.undo_write(1, X2)
        assert block.current(0) == (1,)
        assert block.current(1) is None

    def test_undo_reclaims_the_newest_entry_only(self):
        block = DataBlock(1, 9, 4)
        block.append_row((1,), X1, 10)
        block.write_slot(0, (2,), X2, 11)
        assert block.undo_write(0, X2)
        assert len(block.scns) == 1  # the newest entry of the block: popped
        block.write_slot(0, (3,), X2, 12)
        block.append_row((4,), X1, 13)
        assert not block.undo_write(0, X1)  # not the writer of the head
        assert block.undo_write(0, X2)
        assert block.current(0) == (1,)
        assert len(block.scns) == 3  # an interior entry: unreachable, kept

    def test_wipe_clears_rows(self):
        block = DataBlock(1, 9, 4)
        block.append_row((1,), X1, 10)
        block.write_slot(0, (2,), X1, 15)
        assert not block.wipe_through(20)
        assert block.used_slots == 0
        assert block.scns == []

    def test_wipe_keeps_later_versions_per_version(self):
        """A post-wipe change in a wiped row's slot survives alone: nothing
        of the wiped history is visible beneath it, and the empty tail
        slots go."""
        block = DataBlock(1, 9, 4)
        block.apply_at_slot(0, (1,), X1, 4)
        block.apply_at_slot(1, (2,), X1, 5)
        block.apply_at_slot(0, (3,), X2, 10)
        assert block.wipe_through(8)
        assert block.used_slots == 1
        assert block.current(0) == (3,)
        assert block.prev[block.heads[0]] == END
        assert block.scns == [10]

    def test_wipe_of_a_pruned_chain_ends_it(self):
        block = DataBlock(1, 9, 4)
        for scn in (1, 2, 3, 10):
            block.apply_at_slot(0, (scn,), X1, scn)
        block.prune_undo(keep=2)
        assert block.prev[block.prev[block.heads[0]]] == PRUNED
        assert block.wipe_through(5)
        assert block.prev[block.heads[0]] == END


class TestBlockStore:
    def test_allocate_assigns_unique_dbas(self):
        store = BlockStore()
        b1 = store.allocate(9, 4)
        b2 = store.allocate(9, 4)
        assert b1.dba != b2.dba
        assert store.get(b1.dba) is b1

    def test_ensure_is_idempotent(self):
        store = BlockStore()
        b1 = store.ensure(42, 9, 4)
        b2 = store.ensure(42, 9, 4)
        assert b1 is b2

    def test_ensure_advances_allocator(self):
        store = BlockStore()
        store.ensure(42, 9, 4)
        fresh = store.allocate(9, 4)
        assert fresh.dba > 42


class TestSegment:
    def test_tail_block_extends_when_full(self):
        store = BlockStore()
        segment = Segment(9, store, rows_per_block=2)
        for i in range(5):
            block = segment.tail_block_with_space()
            block.append_row((i,), X1, 10 + i)
        assert segment.n_blocks == 3

    def test_contains_dba(self):
        store = BlockStore()
        segment = Segment(9, store, rows_per_block=2)
        block = segment.tail_block_with_space()
        assert block.dba in segment.dbas
        assert block.dba + 999 not in segment.dbas
        segment.ensure_block(50)
        assert 50 in segment.dbas
        block.append_row((1,), X1, 10)
        segment.truncate(scn=20)
        assert block.dba not in segment.dbas
        assert 50 not in segment.dbas

    def test_ensure_block_keeps_dbas_sorted(self):
        store = BlockStore()
        segment = Segment(9, store, rows_per_block=2)
        segment.ensure_block(30)
        segment.ensure_block(10)
        segment.ensure_block(20)
        assert segment.dbas == [10, 20, 30]

    def test_truncate_empties_segment(self):
        store = BlockStore()
        segment = Segment(9, store, rows_per_block=2)
        block = segment.tail_block_with_space()
        block.append_row((1,), X1, 10)
        segment.truncate(scn=20)
        assert segment.n_blocks == 0
        assert current_rows(segment) == 0

    def test_truncate_keeps_exactly_the_blocks_with_later_versions(self):
        """Another worker applied post-truncate changes first: into a
        fresh block, and into a wiped block whose committed row shares
        the slot -- only the later versions survive."""
        store = BlockStore()
        segment = Segment(9, store, rows_per_block=4)
        old, reused, fresh = (segment.ensure_block(d) for d in (1, 2, 3))
        old.apply_at_slot(0, (1,), X1, 4)
        reused.apply_at_slot(0, (2,), X1, 5)
        reused.apply_at_slot(0, (3,), X2, 10)
        fresh.apply_at_slot(0, (4,), X2, 11)
        segment.truncate(scn=8)
        assert segment.dbas == [2, 3]
        assert current_rows(segment) == 2
        assert reused.current(0) == (3,) and reused.scns == [10]

    def test_row_count_current_skips_deletes(self):
        store = BlockStore()
        segment = Segment(9, store, rows_per_block=4)
        block = segment.tail_block_with_space()
        block.append_row((1,), X1, 10)
        block.append_row((2,), X1, 11)
        block.write_slot(0, None, X1, 12)  # delete
        assert current_rows(segment) == 1
