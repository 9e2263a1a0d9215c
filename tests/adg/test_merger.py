"""Tests for the log merger's SCN ordering and watermark discipline."""

from repro.adg import LogMerger
from repro.common import TransactionId
from repro.redo import CVOp, RedoReceiver
from tests.helpers import batch_of, record_scns as scns
from tests.naive_batch import ChangeVector, InsertPayload, RedoRecord

X = TransactionId(1, 1)


def rec(scn, thread=1, dba=5):
    cv = ChangeVector(CVOp.INSERT, dba, 9, 0, X, InsertPayload(0, (1,)))
    return RedoRecord(scn, thread, (cv,))


def make(threads=(1,)):
    receiver = RedoReceiver()
    for t in threads:
        receiver.register_thread(t)
    return receiver, LogMerger(receiver)


def test_single_thread_merges_everything():
    receiver, merger = make()
    receiver.deliver(batch_of([rec(10), rec(11), rec(12)]))
    assert merger.merge_available() == 3
    assert scns(merger.take_merged(10)) == [10, 11, 12]
    assert merger.merged_through_scn == 12


def test_watermark_holds_back_fast_thread():
    """Records above the slowest thread's delivered SCN must wait."""
    receiver, merger = make(threads=(1, 2))
    receiver.deliver(batch_of([rec(10, 1), rec(20, 1)]))
    # thread 2 has delivered nothing: nothing can be released
    assert merger.merge_available() == 0
    receiver.deliver(batch_of([rec(15, 2)]))
    # watermark = min(20, 15) = 15 -> scn 10 and 15 release, 20 waits
    assert merger.merge_available() == 2
    assert scns(merger.take_merged(10)) == [10, 15]
    receiver.deliver(batch_of([rec(25, 2)]))
    assert merger.merge_available() == 1
    assert scns(merger.take_merged(10)) == [20]


def test_interleaved_threads_come_out_scn_sorted():
    receiver, merger = make(threads=(1, 2))
    receiver.deliver(batch_of([rec(10, 1), rec(30, 1), rec(50, 1)]))
    receiver.deliver(batch_of([rec(20, 2), rec(40, 2), rec(60, 2)]))
    merger.merge_available()
    # 60 held back by thread 1 at 50
    assert scns(merger.take_merged(100)) == [10, 20, 30, 40, 50]


def test_take_merged_respects_batch():
    receiver, merger = make()
    for s in range(10, 20):
        receiver.deliver(batch_of([rec(s)]))  # ten width-1 shipments
    merger.merge_available()
    assert scns(merger.take_merged(3)) == [10, 11, 12]
    assert merger.pending_merged == 7


def test_step_as_actor_charges_cost():
    from repro.sim import Scheduler

    receiver, merger = make()
    sched = Scheduler()
    sched.add_actor(merger)
    receiver.deliver(batch_of([rec(10)]))
    sched.run_until(0.1)
    assert merger.pending_merged == 1
