"""Tests for recovery-worker stall handling and single-sniff guarantees."""

from repro.adg import ApplyDistributor, ApplyStall, RecoveryWorker
from repro.common import TransactionId
from repro.redo import CVOp
from repro.sim import Scheduler
from tests.helpers import batch_of
from tests.naive_batch import ChangeVector, InsertPayload, RedoRecord

X = TransactionId(1, 1)


def rec(scn, dba=1):
    cv = ChangeVector(CVOp.INSERT, dba, 9, 0, X, InsertPayload(0, (1,)))
    return RedoRecord(scn, 1, (cv,))


class StallingApplier:
    """Fails the first ``stalls`` apply attempts of each CV."""

    def __init__(self, stalls=3):
        self.stalls = stalls
        self.attempts = 0
        self.applied = []

    def apply_cv(self, batch, i, scn):
        self.attempts += 1
        if self.attempts <= self.stalls:
            raise ApplyStall("dependency not ready")
        self.applied.append(scn)


def test_stalled_cv_retries_until_applied():
    distributor = ApplyDistributor(1)
    applier = StallingApplier(stalls=3)
    worker = RecoveryWorker(0, distributor, applier)
    distributor.distribute([batch_of([rec(10), rec(11)])])
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(0.1)
    assert applier.applied == [10, 11]
    assert worker.apply_stalls == 3


def test_stalled_cv_is_sniffed_exactly_once():
    """The mining hook must not double-count a CV whose apply stalls."""
    distributor = ApplyDistributor(1)
    applier = StallingApplier(stalls=4)
    sniffed = []

    def sniffer(chunk, worker_id, owner):
        sniffed.extend(chunk.batch.scns[chunk.indices].tolist())
        chunk.mined_pos = chunk.n_cvs
        return True

    worker = RecoveryWorker(0, distributor, applier, batch_sniffer=sniffer)
    distributor.distribute([batch_of([rec(10)])])
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(0.1)
    assert applier.applied == [10]
    assert sniffed == [10]  # exactly once, despite 4 stalls


def test_stall_blocks_consistency_progress():
    distributor = ApplyDistributor(1)
    applier = StallingApplier(stalls=10**9)  # never succeeds
    worker = RecoveryWorker(0, distributor, applier)
    distributor.distribute([batch_of([rec(10)])])
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(0.05)
    assert worker.applied_through() == 9  # stuck just below the stalled CV
