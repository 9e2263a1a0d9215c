"""Tests for the columnar change-vector batch layer (CVBatch/CVChunk)
and its distribution paths."""

import numpy as np

from repro.common import TransactionId
from repro.adg.apply import ApplyDistributor
from repro.redo.batch import CVChunk, encode_xid
from repro.redo.records import CVOp, txn_table_dba

from tests.helpers import NullApplier, batch_of
from tests.numpy_miner import decode_xid
from tests.naive_batch import (
    ChangeVector,
    InsertPayload,
    RedoRecord,
    UndoPayload,
    records_of,
)

X = TransactionId(1, 1)
Y = TransactionId(2, 7)


def cv(op=CVOp.INSERT, dba=5, obj=9, xid=X, slot=0):
    payload = InsertPayload(slot, (1,)) if op is CVOp.INSERT else None
    return ChangeVector(op, dba, obj, 0, xid, payload)


def rec(scn, cvs, thread=1):
    return RedoRecord(scn, thread, tuple(cvs))


def make_batch():
    return batch_of([
        rec(10, [cv(dba=5), cv(dba=6, xid=Y, slot=3)]),
        rec(11, [cv(op=CVOp.TXN_COMMIT, dba=txn_table_dba(1))]),
        rec(12, [cv(dba=7, slot=2)]),
    ])


class TestXidCodec:
    def test_round_trip(self):
        for xid in (X, Y, TransactionId(3, (1 << 40) - 1)):
            assert decode_xid(encode_xid(xid)) == xid

    def test_distinct_xids_distinct_codes(self):
        codes = {encode_xid(TransactionId(i, s))
                 for i in range(1, 4) for s in range(5)}
        assert len(codes) == 15


class TestCVBatch:
    def test_from_records_transposes(self):
        batch = make_batch()
        assert batch.n_records == len(batch) == 3
        assert batch.n_cvs == 4
        assert batch.scn == 10 and batch.last_scn == 12
        assert list(batch.scns) == [10, 10, 11, 12]
        assert list(batch.dbas) == [5, 6, txn_table_dba(1), 7]
        assert list(batch.ops) == [
            CVOp.INSERT, CVOp.INSERT, CVOp.TXN_COMMIT, CVOp.INSERT,
        ]
        assert list(batch.slots) == [0, 3, -1, 2]
        assert list(batch.xids) == [
            encode_xid(X), encode_xid(Y), encode_xid(X), encode_xid(X),
        ]

    def test_payload_side_table_preserves_identity(self):
        """The object columns hold the writer's own row tuples and xids
        (what the row store versions reference), not copies."""
        records = [rec(10, [cv()]), rec(11, [cv(dba=6, xid=Y)])]
        batch = batch_of(records)
        for i, record in enumerate(records):
            assert batch.rows[i] is record.cvs[0].payload.values
            assert batch.xid_objects[i] is record.cvs[0].xid
        assert batch.payloads == [None, None]

    def test_undo_carries_its_real_slot(self):
        """The displaced transpose wrote -1 for an UNDO (its payload type
        was missing from the slotted tuple) while apply read the payload;
        with one slot column the slot apply strips is the one shipped."""
        undo = ChangeVector(CVOp.UNDO, 5, 9, 0, X, UndoPayload(3))
        assert batch_of([rec(10, [undo])]).slots.tolist() == [3]

    def test_slice_records_is_a_view_with_rebased_starts(self):
        batch = make_batch()
        tail = batch.slice_records(1, 3)
        assert tail.n_records == 2 and tail.n_cvs == 2
        assert tail.scn == 11 and tail.last_scn == 12
        assert list(tail.record_starts) == [0, 1]
        assert tail.cv_base == batch.cv_base + 2
        assert np.shares_memory(tail.dbas, batch.dbas)
        assert tail.xid_objects == batch.xid_objects[2:]
        assert records_of(tail) == records_of(batch)[1:]

    def test_split_at_scn_cuts_on_record_boundary(self):
        batch = make_batch()
        head, tail = batch.split_at_scn(11)
        assert [int(s) for s in head.record_scns] == [10, 11]
        assert [int(s) for s in tail.record_scns] == [12]
        whole, rest = batch.split_at_scn(99)
        assert whole is batch and rest is None

    def test_record_cv_counts_match_source_records(self):
        records = [
            rec(10, [cv(dba=5), cv(dba=6)]),
            rec(11, [cv(dba=7)]),
        ]
        assert list(batch_of(records).record_cv_counts()) == [(10, 2), (11, 1)]
        assert records_of(batch_of(records)) == records


class TestDistributeBatch:
    def test_batch_lands_as_chunks_in_scn_order(self):
        dist = ApplyDistributor(2, NullApplier())
        batch = make_batch()
        dist.distribute([batch])
        assert dist.distributed_through == 12
        chunks = [q[0] for q in dist.queues if q]
        assert all(isinstance(c, CVChunk) for c in chunks)
        assert sum(c.n_cvs for c in chunks) == batch.n_cvs
        for chunk in chunks:
            scns = batch.scns[chunk.indices]
            assert list(scns) == sorted(scns)
            # one worker per dba, reserved negative DBAs included
            assert len(set(batch.dbas[chunk.indices] % 2)) == 1
        assert dist.pending() == batch.n_cvs

    def test_width_one_and_wide_batches_share_the_queues(self):
        dist = ApplyDistributor(2, NullApplier())
        single = batch_of([rec(5, [cv(dba=5)])])
        dist.distribute([single, make_batch()])
        assert dist.pending() == 5
        queued = [p for __, ps in dist.queued_positions() for p in ps]
        assert len(queued) == 5

    def test_dba_affinity_holds_across_batches(self):
        dist = ApplyDistributor(3, NullApplier())
        batch = batch_of([
            rec(10, [cv(dba=5), cv(dba=6)]),
            rec(11, [cv(dba=5, slot=1)]),
        ])
        dist.distribute([batch])
        follow_up = batch_of([rec(12, [cv(dba=5, slot=2)])])
        dist.distribute([follow_up])
        homes = set()
        for w, q in enumerate(dist.queues):
            for chunk in q:
                if any(int(d) == 5 for d in chunk.batch.dbas[chunk.indices]):
                    homes.add(w)
        assert len(homes) == 1  # every dba-5 CV hashed to one worker


class TestCVChunk:
    def make_chunk(self):
        batch = make_batch()
        return CVChunk(batch, np.arange(batch.n_cvs, dtype=np.int64))

    def test_cursors_and_head_scn(self):
        chunk = self.make_chunk()
        assert len(chunk) == chunk.n_cvs == 4
        assert chunk.head_scn == 10
        assert not chunk.mined
        chunk.pos = 2
        assert len(chunk) == 2 and chunk.head_scn == 11

    def test_remaining_positions_are_log_offsets(self):
        batch = batch_of(
            [rec(10, [cv(dba=5), cv(dba=6)]), rec(11, [cv(dba=7)])],
            cv_base=40,
        )
        chunk = CVChunk(batch, np.array([0, 2], dtype=np.int64))
        assert chunk.remaining_positions().tolist() == [40, 42]
        chunk.pos = 1
        assert chunk.remaining_positions().tolist() == [42]

    def test_reset_mining_rewinds_to_apply_cursor(self):
        chunk = self.make_chunk()
        chunk.pos = 1
        chunk.mined = True
        chunk.stats_noted = True
        chunk.reset_mining()
        assert not chunk.mined and chunk.pos == 1
        assert chunk.stats_noted  # histogram must not double-count
