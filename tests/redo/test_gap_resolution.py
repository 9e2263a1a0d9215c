"""Tests for archive-gap detection and FAL resolution."""

import pytest

from repro.chaos.sites import Action, Decision
from repro.common import TransactionId
from repro.db import Deployment, InMemoryService
from repro.dbim_adg.flush import InvalidationListener
from repro.imcs import Predicate
from repro.redo import CVOp, LogShipper, RedoLog, RedoReceiver
from repro.redo.batch import CVBatch

from tests.db.conftest import load, simple_table_def, small_config
from tests.helpers import append_record, batch_of, record_scns
from tests.naive_batch import ChangeVector, InsertPayload, RedoRecord

X = TransactionId(1, 1)


class DropNextShipment:
    """An injector for a shipper's ``redo.ship`` site: the next shipment
    is lost in transit (the reader advances past it), then it detaches.
    ``dropped`` is the lost ``(first position, end position)``."""

    def __init__(self, shipper: LogShipper) -> None:
        self.dropped = None
        shipper._chaos.attach(self)

    def decide(self, site, event, context):
        site.detach(self)
        position = context["position"]
        self.dropped = (position, position + context["count"])
        return Decision(Action.DROP)


def rec(scn, thread=1):
    cv = ChangeVector(CVOp.INSERT, 5, 9, 0, X, InsertPayload(0, (1,)))
    return RedoRecord(scn, thread, (cv,))


class TestReceiverGapHandling:
    def test_gap_without_fal_raises(self):
        receiver = RedoReceiver()
        receiver.register_thread(1)
        receiver.deliver(batch_of([rec(10)]), position=0)
        with pytest.raises(RuntimeError, match="archive gap"):
            # positions 1-4 lost
            receiver.deliver(batch_of([rec(30)]), position=5)

    def test_gap_resolved_through_fal(self):
        log = RedoLog(1)
        for scn in range(10, 20):
            append_record(log, rec(scn))

        def fal(thread, lo, hi):
            return log.batch(lo, hi)

        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(log.batch(0, 1), position=0)
        # skip positions 1..6, deliver 7..9
        receiver.deliver(
            log.batch(7, 10), position=7
        )
        assert receiver.gaps_resolved == 1
        assert receiver.gap_records_fetched == 6
        scns = sorted(record_scns(receiver.queue(1)))
        assert scns == list(range(10, 20))

    def test_contiguous_delivery_no_fal_needed(self):
        receiver = RedoReceiver()  # no FAL configured
        receiver.register_thread(1)
        receiver.deliver(batch_of([rec(10), rec(11)]), position=0)
        receiver.deliver(batch_of([rec(12)]), position=2)
        assert receiver.gaps_resolved == 0

    def test_short_fal_answer_rejected(self):
        receiver = RedoReceiver(fal_fetch=lambda t, lo, hi: batch_of([]))
        receiver.register_thread(1)
        receiver.deliver(batch_of([rec(10)]), position=0)
        with pytest.raises(RuntimeError, match="FAL returned"):
            receiver.deliver(batch_of([rec(30)]), position=5)


class TestReceiverGapEdges:
    def _fal_log(self, n=20):
        log = RedoLog(1)
        for scn in range(10, 10 + n):
            append_record(log, rec(scn))

        def fal(thread, lo, hi):
            return log.batch(lo, hi)

        return log, fal

    def test_gap_at_position_zero(self):
        """The very first shipment already starts beyond the watermark:
        positions [0, first) must be FAL-fetched, not silently skipped."""
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(log.batch(3, 4), position=3)
        assert receiver.gaps_resolved == 1
        assert receiver.gap_records_fetched == 3
        assert receiver.expected_position(1) == 4
        scns = sorted(record_scns(receiver.queue(1)))
        assert scns == [10, 11, 12, 13]

    def test_back_to_back_gaps_same_thread(self):
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(log.batch(0, 1), position=0)
        receiver.deliver(log.batch(5, 6), position=5)  # [1, 5)
        receiver.deliver(log.batch(9, 10), position=9)  # [6, 9)
        assert receiver.gaps_resolved == 2
        assert receiver.gap_records_fetched == 7
        assert receiver.expected_position(1) == 10
        scns = sorted(record_scns(receiver.queue(1)))
        assert scns == list(range(10, 20))

    def test_short_nonempty_fal_answer_rejected(self):
        """A FAL source that returns *some* records but not the whole gap
        is as unusable as an empty one."""
        log, fal = self._fal_log()
        short = lambda thread, lo, hi: log.batch(lo, hi - 1)
        receiver = RedoReceiver(fal_fetch=short)
        receiver.register_thread(1)
        receiver.deliver(log.batch(0, 1), position=0)
        with pytest.raises(RuntimeError, match="FAL returned 3"):
            receiver.deliver(log.batch(5, 6), position=5)

    def test_empty_tracked_shipment_advances_gap_tracking(self):
        """A zero-record shipment whose position is beyond the watermark
        still proves redo was lost in between -- it must FAL-heal and
        advance the watermark, not fall through untracked."""
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(batch_of([]), position=4, thread=1)
        assert receiver.gaps_resolved == 1
        assert receiver.gap_records_fetched == 4
        assert receiver.expected_position(1) == 4
        assert receiver.records_landed[1] == 4

    def test_empty_tracked_shipment_requires_thread(self):
        receiver = RedoReceiver()
        receiver.register_thread(1)
        with pytest.raises(ValueError, match="explicit thread"):
            receiver.deliver(batch_of([]), position=4)

    def test_fal_answer_from_unregistered_thread_lands(self):
        """Regression: a FAL source may answer with redo from a thread
        this receiver has not registered yet (a late-added primary
        instance whose own first shipment is still in flight).  Those
        records must land in a fresh queue, not KeyError the heal."""

        def fal(thread, lo, hi):
            # the archived range interleaves thread-2 redo
            return batch_of([rec(100 + i, thread=2) for i in range(lo, hi)])

        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(batch_of([rec(10)]), position=0)
        receiver.deliver(batch_of([rec(30)]), position=5)  # gap [1, 5)
        assert receiver.gaps_resolved == 1
        assert receiver.gap_records_fetched == 4
        assert 2 in receiver.threads
        assert sorted(record_scns(receiver.queue(2))) == [101, 102, 103, 104]
        assert receiver.received_scn[2] == 104
        # gap accounting still charges the thread whose gap triggered it
        assert receiver.records_landed[1] == 1 + 4 + 1
        assert receiver.expected_position(1) == 6

    def test_duplicate_redelivery_discarded(self):
        """Redelivering an already-landed batch (duplicated or reordered
        shipment) must not apply redo twice."""
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(log.batch(0, 3), position=0)
        receiver.deliver(log.batch(0, 3), position=0)  # exact duplicate
        assert receiver.duplicates_discarded == 3
        assert len(record_scns(receiver.queue(1))) == 3
        assert receiver.expected_position(1) == 3

    def test_partially_overlapping_redelivery_keeps_the_new_suffix(self):
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(
            log.batch(0, 3), position=0
        )
        # positions 1..4: 1 and 2 already landed, 3 and 4 are new
        receiver.deliver(
            log.batch(1, 5), position=1
        )
        assert receiver.duplicates_discarded == 2
        assert receiver.expected_position(1) == 5
        scns = sorted(record_scns(receiver.queue(1)))
        assert scns == list(range(10, 15))


class TestEndToEndGap:
    def test_dropped_shipments_heal_and_standby_stays_consistent(self):
        """Fault injection: lose records in transit mid-workload; the
        receiver FAL-fetches the gap and the standby converges exactly."""
        deployment = Deployment.build(config=small_config())
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()

        shipper = next(
            a for a in deployment.sched.actors if isinstance(a, LogShipper)
        )
        txn = deployment.primary.begin()
        for rowid in rowids[:20]:
            deployment.primary.update(txn, "T", rowid, {"n1": -6.0})
        deployment.primary.commit(txn)
        drop = DropNextShipment(shipper)  # lose the shipment in transit
        deployment.catch_up()
        assert drop.dropped is not None
        assert deployment.standby.receiver.gaps_resolved >= 1
        result = deployment.standby.query("T", [Predicate.eq("n1", -6.0)])
        assert len(result.rows) == 20

        snapshot = deployment.standby.query_scn.value
        table = deployment.primary.catalog.table("T")
        expected = sorted(
            values for __, values in table.full_scan(
                snapshot, deployment.primary.txn_table
            )
        )
        assert sorted(deployment.standby.query("T").rows) == expected

    def test_gap_fill_and_live_shipment_feed_one_transaction(self):
        """Under DBIM-on-ADG a FAL-healed gap reaches the distributor as
        a ``CVBatch`` like any shipment, and a transaction whose changes
        arrive half through the gap fill and half through a live shipment
        flushes the union of its slots."""
        deployment = Deployment.build(config=small_config())
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()
        standby = deployment.standby

        distributed = []  # every batch handed to the distributor
        distribute = standby.distributor.distribute

        def spy(batches):
            distributed.extend(batches)
            return distribute(batches)

        standby.distributor.distribute = spy

        class Capture(InvalidationListener):
            groups = []

            def on_group_flushed(self, group):
                self.groups.append(group)

        standby.flush.add_invalidation_listener(Capture())

        shipper = next(
            a for a in deployment.sched.actors if isinstance(a, LogShipper)
        )
        primary = deployment.primary
        log = primary.redo_logs[0]
        txn = primary.begin()
        for rowid in rowids[:10]:
            primary.update(txn, "T", rowid, {"n1": -6.0})
        drop = DropNextShipment(shipper)
        deployment.run(0.001)  # begin + first ten updates lost
        lo, hi = drop.dropped
        for rowid in rowids[10:20]:
            primary.update(txn, "T", rowid, {"n1": -6.0})
        commit_scn = primary.commit(txn)
        deployment.catch_up()

        assert standby.receiver.gaps_resolved == 1
        assert hi - lo >= 10  # (a heartbeat may ride along)
        assert standby.receiver.gap_records_fetched == hi - lo
        assert all(isinstance(batch, CVBatch) for batch in distributed)
        gap_scns = set(log.batch(lo, hi).record_scns)
        assert gap_scns <= set(record_scns(distributed))

        flushed = {
            (dba, slot)
            for group in Capture.groups
            if group.commit_scn == commit_scn
            for dba, slots in group.blocks.items()
            for slot in slots
        }
        assert flushed == {(r.dba, r.slot) for r in rowids[:20]}
        result = standby.query("T", [Predicate.eq("n1", -6.0)])
        assert len(result.rows) == 20
