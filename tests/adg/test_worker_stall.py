"""Recovery workers across a journal latch miss: the step ends, the chunk
stays at the queue head, and no CV is mined twice."""

from repro.adg import ApplyDistributor, RecoveryWorker
from repro.common import TransactionId
from repro.redo import CVOp
from repro.sim import Scheduler
from tests.helpers import NullApplier, batch_of
from tests.naive_batch import ChangeVector, InsertPayload, RedoRecord

X = TransactionId(1, 1)


def rec(scn, dba=1):
    cv = ChangeVector(CVOp.INSERT, dba, 9, 0, X, InsertPayload(0, (1,)))
    return RedoRecord(scn, 1, (cv,))


class RecordingApplier(NullApplier):
    def __init__(self):
        self.applied = []

    def apply_cv(self, batch, i, scn):
        self.applied.append(scn)


class MissingSniffer:
    """Mines one CV per call and reports a latch miss until the chunk is
    mined, after ``misses`` calls that mine nothing at all."""

    def __init__(self, misses=0):
        self.misses = misses
        self.sniffed = []

    def __call__(self, chunk, worker_id, owner):
        if self.misses:
            self.misses -= 1
            return False
        position = chunk.indices[chunk.mined_pos]
        self.sniffed.append(int(chunk.batch.scns[position]))
        chunk.mined_pos += 1
        return chunk.fully_mined


def run(worker, until=0.1):
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(until)


def test_stalled_cv_retries_until_applied():
    distributor = ApplyDistributor(1, NullApplier())
    applier = RecordingApplier()
    sniffer = MissingSniffer(misses=3)
    worker = RecoveryWorker(0, distributor, applier, batch_sniffer=sniffer)
    distributor.distribute([batch_of([rec(10), rec(11)])])
    run(worker)
    assert applier.applied == [10, 11]
    # three empty misses, then one partial-progress miss on a 2-CV chunk
    assert worker.sniff_retries == 4


def test_stalled_cv_is_sniffed_exactly_once():
    """Partial mining progress survives a latch miss, and a chunk whose
    apply spans several steps (budget 1) is not mined again."""
    distributor = ApplyDistributor(1, NullApplier())
    applier = RecordingApplier()
    sniffer = MissingSniffer(misses=2)
    worker = RecoveryWorker(
        0, distributor, applier, batch_sniffer=sniffer, batch=1
    )
    distributor.distribute([batch_of([rec(10), rec(11), rec(12)])])
    run(worker)
    assert applier.applied == [10, 11, 12]
    assert sniffer.sniffed == [10, 11, 12]  # each exactly once


def test_stall_blocks_consistency_progress():
    distributor = ApplyDistributor(1, NullApplier())
    worker = RecoveryWorker(
        0, distributor, RecordingApplier(),
        batch_sniffer=MissingSniffer(misses=10**9),  # never succeeds
    )
    distributor.distribute([batch_of([rec(10)])])
    run(worker, until=0.05)
    assert worker.applied_through() == 9  # stuck just below the missed CV
    assert worker.cvs_applied == 0
