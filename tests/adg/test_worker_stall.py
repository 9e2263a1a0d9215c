"""Recovery workers mine each chunk once: a chunk whose apply spans
several steps is not mined again, and a restart's ``reset_mining`` makes
the worker mine it again from its apply cursor."""

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


class RecordingSniffer:
    """Notes the SCN of every CV a sniff covers: the chunk from its apply
    cursor on, as the miner mines it."""

    def __init__(self):
        self.sniffed = []

    def __call__(self, chunk, worker_id):
        self.sniffed += [
            int(chunk.batch.scns[i]) for i in chunk.indices[chunk.pos :]
        ]


def budget_one_worker(scns):
    distributor = ApplyDistributor(1, NullApplier())
    applier = RecordingApplier()
    sniffer = RecordingSniffer()
    worker = RecoveryWorker(
        0, distributor, applier, batch_sniffer=sniffer, batch=1
    )
    distributor.distribute([batch_of([rec(scn) for scn in scns])])
    return distributor, applier, sniffer, worker


def test_stalled_cv_is_sniffed_exactly_once():
    """A chunk whose apply spans several steps (budget 1) is mined once,
    before its first CV applies."""
    __, applier, sniffer, worker = budget_one_worker([10, 11, 12])
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(0.1)
    assert applier.applied == [10, 11, 12]
    assert sniffer.sniffed == [10, 11, 12]  # each exactly once


def test_reset_mining_re_mines_from_the_apply_cursor():
    """After one CV applied, a restart's reset makes the next step mine
    the rest of the chunk again -- and only the rest."""
    distributor, applier, sniffer, worker = budget_one_worker([10, 11, 12])
    sched = Scheduler()
    worker.step(sched)
    assert applier.applied == [10] and sniffer.sniffed == [10, 11, 12]
    distributor.queues[0][0].reset_mining()
    sched.add_actor(worker)
    sched.run_until(0.1)
    assert applier.applied == [10, 11, 12]
    assert sniffer.sniffed == [10, 11, 12, 11, 12]
