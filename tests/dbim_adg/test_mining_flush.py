"""Tests for the Mining Component and Invalidation Flush Component."""

import itertools

from repro.common import TransactionId
from repro.dbim_adg import (
    DDLInformationTable,
    IMADGCommitTable,
    IMADGJournal,
    InvalidationFlushComponent,
    MiningComponent,
)
from repro.imcs import IMCU, InMemoryColumnStore
from repro.redo import CVOp, DDLMarkerPayload, ddl_marker_dba, txn_table_dba
from repro.redo.batch import MINE_CLASS
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table
from tests.helpers import batch_of, records_of, sniff_one, unit_covering
from tests.naive_batch import (
    ChangeVector,
    CommitPayload,
    RedoRecord,
    UndoPayload,
    UpdatePayload,
)


def make_table():
    schema = Schema(
        [
            Column("id", ColumnType.NUMBER, nullable=False),
            Column("n1", ColumnType.NUMBER),
        ]
    )
    oid = itertools.count(700)
    return Table(
        "T", schema, BlockStore(),
        object_id_allocator=lambda: next(oid), rows_per_block=8,
    )


class FakeTxnView:
    def __init__(self):
        self._c = {}

    def commit(self, xid, scn):
        self._c[xid] = scn

    def commit_scn_of(self, xid):
        return self._c.get(xid)


def make_stack(table=None):
    journal = IMADGJournal()
    commit_table = IMADGCommitTable(4)
    ddl_table = DDLInformationTable()
    store = InMemoryColumnStore()
    if table is not None:
        store.enable(table)
    miner = MiningComponent(journal, commit_table, ddl_table, store)
    flush = InvalidationFlushComponent(journal, commit_table, ddl_table, store)
    return journal, commit_table, ddl_table, store, miner, flush


def populate(table, store, txns, n=16, clock_scn=1000):
    xid = TransactionId(1, 999)
    rowids = []
    for i in range(n):
        __, rowid = table.insert_row((i, float(i)), xid, 100 + i)
        rowids.append(rowid)
    txns.commit(xid, 200)
    segment = table.default_partition.segment
    imcu = IMCU.build(
        segment, table.schema, table.tenant, segment.dbas, clock_scn, txns
    )
    store.register_unit(imcu)
    return rowids


X1 = TransactionId(1, 1)


def begin_cv(xid=X1):
    return ChangeVector(CVOp.TXN_BEGIN, txn_table_dba(1), 0, 0, xid)


def commit_cv(scn, xid=X1, flag=True):
    return ChangeVector(
        CVOp.TXN_COMMIT, txn_table_dba(1), 0, 0, xid,
        CommitPayload(scn, flag),
    )


def update_cv(object_id, dba, slot, xid=X1):
    return ChangeVector(
        CVOp.UPDATE, dba, object_id, 0, xid,
        UpdatePayload(slot, (0, -1.0), ("n1",)),
    )


class TestMining:
    def test_begin_creates_anchor_with_flag(self):
        journal, *_rest, miner, __ = make_stack()
        sniff_one(miner, begin_cv(), 10)
        anchor = journal.get(X1)
        assert anchor is not None and anchor.has_begin

    def test_data_cv_on_enabled_object_mined(self):
        table = make_table()
        journal, ct, dt, store, miner, flush = make_stack(table)
        oid = table.default_partition.object_id
        sniff_one(miner, begin_cv(), 10)
        sniff_one(miner, update_cv(oid, dba=1, slot=2), 11, worker_id=3)
        anchor = journal.get(X1)
        records = records_of(anchor)
        assert len(records) == 1
        assert records[0].dba == 1 and records[0].slots == (2,)
        assert 3 in anchor.worker_chunks

    def test_data_cv_on_disabled_object_ignored(self):
        journal, *__rest, miner, __ = make_stack()  # nothing enabled
        sniff_one(miner, begin_cv(), 10)
        sniff_one(miner, update_cv(4242, dba=1, slot=2), 11)
        anchor = journal.get(X1)
        assert anchor.n_records == 0
        assert miner.data_records_mined == 0

    def test_commit_creates_commit_table_node(self):
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        sniff_one(miner, begin_cv(), 10)
        sniff_one(miner, commit_cv(50), 50)
        chopped = ct.chop(50)
        assert len(chopped) == 1
        assert chopped[0].commit_scn == 50
        assert not chopped[0].coarse
        assert chopped[0].anchor is not None

    def test_commit_without_begin_and_flag_true_is_coarse(self):
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        sniff_one(miner, commit_cv(50, flag=True), 50)
        chopped = ct.chop(50)
        assert chopped[0].coarse
        assert miner.coarse_nodes_created == 1

    def test_commit_after_data_without_begin_is_coarse(self):
        """The restart protocol keys on the begin, not on the anchor: data
        mined after a restart anchors the transaction, but its earlier
        changes are lost, so the commit still invalidates coarsely."""
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        oid = table.default_partition.object_id
        sniff_one(miner, update_cv(oid, dba=1, slot=2), 49)
        sniff_one(miner, commit_cv(50, flag=True), 50)
        (node,) = ct.chop(50)
        assert node.coarse and node.anchor is journal.get(X1)

    def test_commit_without_begin_and_flag_false_is_skipped(self):
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        sniff_one(miner, commit_cv(50, flag=False), 50)
        assert ct.chop(50) == []
        assert miner.coarse_nodes_created == 0

    def test_commit_without_begin_and_no_flag_pessimistic_coarse(self):
        """Specialized redo generation disabled (flag None): assume the
        worst (paper, III-E)."""
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        sniff_one(miner, commit_cv(50, flag=None), 50)
        assert ct.chop(50)[0].coarse

    def test_abort_discards_journal_entries(self):
        table = make_table()
        journal, *__rest, miner, __ = make_stack(table)
        oid = table.default_partition.object_id
        sniff_one(miner, begin_cv(), 10)
        sniff_one(miner, update_cv(oid, 1, 2), 11)
        abort = ChangeVector(CVOp.TXN_ABORT, txn_table_dba(1), 0, 0, X1)
        sniff_one(miner, abort, 12)
        assert journal.anchor_count == 0

    def test_undo_cvs_not_mined(self):
        table = make_table()
        journal, *__rest, miner, __ = make_stack(table)
        oid = table.default_partition.object_id
        sniff_one(miner, begin_cv(), 10)
        undo = ChangeVector(CVOp.UNDO, 1, oid, 0, X1, UndoPayload(2))
        # the UNDO ships its real slot now (the displaced transpose wrote
        # -1), and mining must keep ignoring it: it restores the committed
        # state the IMCU already holds
        assert batch_of([RedoRecord(11, 1, (undo,))]).slots == [2]
        assert MINE_CLASS[CVOp.UNDO] == 0
        sniff_one(miner, undo, 11)
        anchor = journal.get(X1)
        assert anchor.n_records == 0
        assert miner.data_records_mined == 0

    def test_ddl_marker_buffered(self):
        table = make_table()
        journal, ct, ddl_table, *__rest, miner, flush = make_stack(table)
        payload = DDLMarkerPayload("drop_column", (1,), "T", {"column": "n1"})
        cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(1), 1, 0, X1, payload)
        sniff_one(miner, cv, 30)
        assert len(ddl_table._entries) == 1

    def test_clear_resets_tail_commits_skipped(self):
        *__rest, miner, __ = make_stack(make_table())
        miner.tail_mode = True
        sniff_one(miner, commit_cv(50), 50)  # no begin: skipped
        assert miner.tail_commits_skipped == 1
        miner.clear()
        assert miner.tail_commits_skipped == 0


class TestFlush:
    def test_flush_invalidates_committed_rows(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        rowids = populate(table, store, txns)
        oid = table.default_partition.object_id

        sniff_one(miner, begin_cv(), 300)
        target = rowids[3]
        sniff_one(miner, update_cv(oid, target.dba, target.slot), 301)
        sniff_one(miner, commit_cv(310), 310)

        flush.begin_advance(320)
        while not flush.is_advance_complete():
            flush.coordinator_flush(8)
        flush.finish_advance(320)

        smu = unit_covering(store, oid, target.dba)
        assert smu.invalid_count == 1
        assert not smu.valid_row_mask()[3]
        assert journal.anchor_count == 0  # anchor released after flush

    def test_uncommitted_transaction_not_flushed(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        rowids = populate(table, store, txns)
        oid = table.default_partition.object_id
        sniff_one(miner, begin_cv(), 300)
        sniff_one(miner, update_cv(oid, rowids[0].dba, rowids[0].slot), 301, 0)
        # no commit mined
        flush.begin_advance(400)
        assert flush.is_advance_complete()
        smu = unit_covering(store, oid, rowids[0].dba)
        assert smu.invalid_count == 0
        assert journal.anchor_count == 1  # anchor retained

    def test_commit_beyond_target_not_flushed(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        rowids = populate(table, store, txns)
        oid = table.default_partition.object_id
        sniff_one(miner, begin_cv(), 300)
        sniff_one(miner, update_cv(oid, rowids[0].dba, rowids[0].slot), 301, 0)
        sniff_one(miner, commit_cv(500), 500)
        flush.begin_advance(400)  # target below commitSCN
        assert flush.is_advance_complete()
        smu = unit_covering(store, oid, rowids[0].dba)
        assert smu.invalid_count == 0
        assert len(ct) == 1  # node still waiting

    def test_coarse_node_invalidates_tenant(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        populate(table, store, txns)
        oid = table.default_partition.object_id
        sniff_one(miner, commit_cv(310, flag=True), 310)  # no begin
        flush.begin_advance(320)
        while not flush.is_advance_complete():
            flush.coordinator_flush(8)
        assert flush.coarse_flushes == 1
        assert all(s.fully_invalid for s in store.segment(oid).live_units())

    def test_groups_merge_slots_per_block(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        rowids = populate(table, store, txns)
        oid = table.default_partition.object_id
        sniff_one(miner, begin_cv(), 300)
        # two updates to the same block from different workers
        sniff_one(miner, update_cv(oid, rowids[0].dba, rowids[0].slot), 301, 0)
        sniff_one(miner, update_cv(oid, rowids[1].dba, rowids[1].slot), 302, 1)
        sniff_one(miner, commit_cv(310), 310)
        flush.begin_advance(320)
        flush.coordinator_flush(8)
        assert flush.groups_created == 1  # one object, few blocks

    def test_ddl_processing_drops_units_and_applies_schema(self):
        table = make_table()
        txns = FakeTxnView()
        applied = []
        journal, ct, dt, store, miner, __ = make_stack(table)
        flush = InvalidationFlushComponent(
            journal, ct, dt, store, ddl_applier=applied.append
        )
        populate(table, store, txns)
        oid = table.default_partition.object_id
        payload = DDLMarkerPayload("drop_column", (oid,), "T", {"column": "n1"})
        cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(oid), oid, 0, X1,
                          payload)
        sniff_one(miner, cv, 350)
        flush.begin_advance(360)
        assert store.segment(oid).live_units() == []
        assert applied == [payload]
        assert flush.ddl_processed == 1

    def test_ddl_beyond_target_deferred(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        populate(table, store, txns)
        oid = table.default_partition.object_id
        payload = DDLMarkerPayload("drop_column", (oid,), "T", {"column": "n1"})
        cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(oid), oid, 0, X1,
                          payload)
        sniff_one(miner, cv, 500)
        flush.begin_advance(360)
        assert store.segment(oid).live_units()  # still there
        assert len(dt._entries) == 1

    def test_ddl_drop_happens_pre_publication_not_in_finish_advance(self):
        """Paper III-D ordering: DDL-affected IMCUs are dropped in
        ``begin_advance`` -- *before* the coordinator can publish the new
        QuerySCN -- and ``finish_advance`` is pure post-publication
        bookkeeping that performs no DDL work (this pins the protocol
        docstrings' corrected step ordering)."""
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        populate(table, store, txns)
        oid = table.default_partition.object_id
        payload = DDLMarkerPayload("drop_column", (oid,), "T", {"column": "n1"})
        cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(oid), oid, 0, X1,
                          payload)
        sniff_one(miner, cv, 350)
        flush.begin_advance(360)
        # dropped at begin_advance time: a reader at the published SCN can
        # never see a stale unit for the DDL-affected object
        assert store.segment(oid).live_units() == []
        assert flush.ddl_processed == 1
        # a second, deferred DDL past the target stays pending across
        # finish_advance -- finishing must not process it early
        late = DDLMarkerPayload("drop_column", (oid,), "T", {"column": "n2"})
        late_cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(oid), oid, 0,
                               X1, late)
        sniff_one(miner, late_cv, 500)
        while not flush.is_advance_complete():
            flush.coordinator_flush(8)
        flush.finish_advance(360)
        assert flush.worklink is None  # drained worklink retired
        assert flush.ddl_processed == 1  # no DDL ran in finish_advance
        assert len(dt._entries) == 1  # the late marker is still buffered
