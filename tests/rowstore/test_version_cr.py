"""Tests for a block's version chains and consistent-read visibility."""

import pytest

from repro.common import SnapshotTooOldError, TransactionId
from repro.rowstore import DataBlock
from repro.rowstore.cr import visible_values

from tests.naive_versions import chain_of, visible_version
from tests.rowstore.conftest import FakeTxnView

X1 = TransactionId(1, 1)
X2 = TransactionId(1, 2)
X3 = TransactionId(1, 3)


def block_with(*versions):
    """One block whose slot 0 carries ``(values, xid, scn)`` oldest first."""
    block = DataBlock(1, 9, capacity=4)
    for values, xid, scn in versions:
        block.apply_at_slot(0, values, xid, scn)
    return block


class TestVersionChain:
    def test_current_is_newest(self):
        block = block_with(((1,), X1, 10), ((2,), X2, 20))
        assert block.current(0) == (2,)

    def test_rollback_strips_only_that_xid(self):
        block = block_with(((1,), X1, 10), ((2,), X2, 20), ((3,), X2, 21))
        assert block.undo_write(0, X2) and block.undo_write(0, X2)
        assert not block.undo_write(0, X2)
        assert block.current(0) == (1,)

    def test_prune_keeps_newest(self):
        block = block_with(*[((i,), X1, i) for i in range(1, 11)])
        dropped = block.prune_undo(keep=3)
        assert dropped == 7
        chain = chain_of(block, 0)
        assert len(chain) == 3
        assert chain.truncated
        assert block.current(0) == (10,)
        assert len(block.scns) == 3  # the dropped entries are reclaimed

    def test_prune_rejects_zero_keep(self):
        with pytest.raises(ValueError):
            DataBlock(1, 9, 4).prune_undo(0)


class TestVisibility:
    def test_committed_version_visible_at_or_after_commit(self):
        txns = FakeTxnView()
        txns.commit(X1, 15)
        block = block_with(((1,), X1, 10))
        assert visible_values(block, 0, 15, txns) == (1,)
        assert visible_values(block, 0, 100, txns) == (1,)

    def test_committed_version_invisible_before_commit_scn(self):
        """A change made at SCN 10 but committed at 15 is invisible at 12."""
        txns = FakeTxnView()
        txns.commit(X1, 15)
        block = block_with(((1,), X1, 10))
        assert visible_values(block, 0, 12, txns) is None

    def test_uncommitted_version_skipped(self):
        txns = FakeTxnView()
        txns.commit(X1, 5)
        block = block_with(((1,), X1, 3), ((2,), X2, 8))
        assert visible_values(block, 0, 100, txns) == (1,)

    def test_snapshot_picks_correct_intermediate_version(self):
        txns = FakeTxnView()
        txns.commit(X1, 10)
        txns.commit(X2, 20)
        txns.commit(X3, 30)
        block = block_with(((1,), X1, 9), ((2,), X2, 19), ((3,), X3, 29))
        assert visible_values(block, 0, 10, txns) == (1,)
        assert visible_values(block, 0, 25, txns) == (2,)
        assert visible_values(block, 0, 30, txns) == (3,)

    def test_tombstone_returned_as_none_values(self):
        txns = FakeTxnView()
        txns.commit(X1, 10)
        txns.commit(X2, 20)
        block = block_with(((1,), X1, 9), (None, X2, 19))
        assert visible_values(block, 0, 25, txns) is None
        version = visible_version(chain_of(block, 0), 25, txns)
        assert version is not None and version.is_delete

    def test_truncated_chain_raises_snapshot_too_old(self):
        txns = FakeTxnView()
        txns.commit(X2, 20)
        block = block_with(((1,), X1, 9), ((2,), X2, 19))
        block.prune_undo(keep=1)
        with pytest.raises(SnapshotTooOldError):
            visible_values(block, 0, 10, txns)

    def test_empty_chain_returns_none(self):
        block = DataBlock(1, 9, 4)
        block.apply_at_slot(1, (1,), X1, 10)  # slot 0: an apply gap
        assert visible_values(block, 0, 100, FakeTxnView()) is None
        assert visible_values(block, 3, 100, FakeTxnView()) is None
