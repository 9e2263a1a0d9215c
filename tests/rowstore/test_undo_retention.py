"""Tests for the undo retention sweeper."""

import pytest

from repro.common import SnapshotTooOldError, TransactionId
from repro.rowstore import BlockStore
from repro.rowstore.cr import visible_values
from repro.rowstore.undo_retention import (
    SWEEP_INTERVAL,
    UndoRetentionManager,
)
from repro.sim import Scheduler

from tests.naive_versions import chain_of
from tests.rowstore.conftest import FakeTxnView


def hot_row_store(n_versions=50):
    """One block whose slot 0 carries a long version chain."""
    store = BlockStore()
    block = store.allocate(object_id=9, capacity=4)
    txns = FakeTxnView()
    for i in range(n_versions):
        xid = TransactionId(1, i + 1)
        if i == 0:
            block.append_row((i,), xid, 10 + i)
        else:
            block.write_slot(0, (i,), xid, 10 + i)
        txns.commit(xid, 10 + i)
    return store, block, txns


def test_sweep_prunes_to_bound():
    store, block, __ = hot_row_store(50)
    manager = UndoRetentionManager(store, keep_versions=5)
    dropped = manager.sweep()
    assert dropped == 45
    assert len(chain_of(block, 0)) == 5
    assert manager.versions_pruned == 45


def test_current_version_always_survives():
    store, block, txns = hot_row_store(50)
    UndoRetentionManager(store, keep_versions=1).sweep()
    assert len(chain_of(block, 0)) == 1
    assert visible_values(block, 0, 1000, txns) == (49,)


def test_old_snapshot_raises_snapshot_too_old():
    store, block, txns = hot_row_store(50)
    UndoRetentionManager(store, keep_versions=5).sweep()
    with pytest.raises(SnapshotTooOldError):
        visible_values(block, 0, 12, txns)  # needs a pruned version


def test_recent_snapshot_still_readable():
    store, block, txns = hot_row_store(50)
    UndoRetentionManager(store, keep_versions=5).sweep()
    assert visible_values(block, 0, 58, txns) == (48,)


def test_actor_sweeps_on_interval():
    store, block, __ = hot_row_store(50)
    manager = UndoRetentionManager(store, keep_versions=5)
    sched = Scheduler()
    sched.add_actor(manager)
    sched.run_until(3.5 * SWEEP_INTERVAL)
    assert manager.sweeps >= 3
    assert len(chain_of(block, 0)) == 5


def test_rejects_zero_retention():
    with pytest.raises(ValueError):
        UndoRetentionManager(BlockStore(), keep_versions=0)
