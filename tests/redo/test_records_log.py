"""Tests for the redo vocabulary and the columnar redo log."""

import copy

import pytest

from repro.common import TransactionId
from repro.common.errors import RedoCorruptionError
from repro.redo import (
    CVOp,
    RedoLog,
    ddl_marker_dba,
    txn_table_dba,
)
from repro.redo.batch import MINE_CLASS, MINE_DATA, MINE_SPECIAL, CVBatch

from tests.helpers import append_record, log_records
from tests.naive_batch import ChangeVector, InsertPayload, RedoRecord

X = TransactionId(1, 1)


def cv(op=CVOp.INSERT, dba=5):
    payload = InsertPayload(0, (1,)) if op is CVOp.INSERT else None
    return ChangeVector(op, dba, object_id=9, tenant=0, xid=X, payload=payload)


def rec(scn, thread=1, ops=(CVOp.INSERT,)):
    return RedoRecord(scn, thread, tuple(cv(op) for op in ops))


#: One CV row as ``RedoLog.append`` takes it.
ROW = (int(CVOp.INSERT), 5, 9, 0, X, 0, (1,), None)


class TestRecords:
    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            RedoLog(1).append(1, 10, ())

    def test_op_codes_are_the_definition_order(self):
        """The log's op column and ``MINE_CLASS`` index by these."""
        assert [int(op) for op in CVOp] == list(range(len(CVOp)))

    def test_control_and_data_classification(self):
        """Ops classify for the miner as data, special (transaction
        control + DDL markers) or nothing to mine."""
        data = {CVOp.INSERT, CVOp.UPDATE, CVOp.DELETE}
        special = {
            CVOp.TXN_BEGIN, CVOp.TXN_COMMIT, CVOp.TXN_ABORT,
            CVOp.DDL_MARKER,
        }
        for op in CVOp:
            expected = (
                MINE_DATA if op in data
                else MINE_SPECIAL if op in special
                else 0
            )
            assert MINE_CLASS[op] == expected, op

    def test_reserved_dbas_are_negative_and_distinct(self):
        assert txn_table_dba(1) < 0
        assert txn_table_dba(1) != txn_table_dba(2)
        assert ddl_marker_dba(5) < 0
        assert ddl_marker_dba(5) != ddl_marker_dba(6)
        assert txn_table_dba(1) != ddl_marker_dba(1)


class TestRedoLog:
    def test_append_and_length(self):
        log = RedoLog(1)
        log.append(1, 10, (ROW,))
        log.append(1, 11, (ROW, ROW))
        assert len(log) == 2  # records, not change vectors
        assert log.last_scn == 11

    def test_same_scn_twice_is_allowed(self):
        """Multiple records can carry the same SCN (batched changes)."""
        log = RedoLog(1)
        log.append(1, 10, (ROW,))
        log.append(1, 10, (ROW,))
        assert len(log) == 2

    def test_scn_regression_rejected(self):
        log = RedoLog(1)
        log.append(1, 10, (ROW,))
        with pytest.raises(RedoCorruptionError):
            log.append(1, 9, (ROW,))
        assert len(log) == 1 and log.batch(0, 9).n_cvs == 1  # nothing landed

    def test_wrong_thread_rejected(self):
        log = RedoLog(1)
        with pytest.raises(RedoCorruptionError):
            log.append(2, 10, (ROW,))
        assert len(log) == 0

    def test_batch_is_a_range_of_record_positions(self):
        log = RedoLog(1)
        records = [
            rec(10, ops=(CVOp.TXN_BEGIN, CVOp.INSERT)),
            rec(11),
            rec(12, ops=(CVOp.INSERT, CVOp.INSERT)),
            rec(13, ops=(CVOp.TXN_ABORT,)),
        ]
        for record in records:
            append_record(log, record)
        batch = log.batch(1, 3)
        assert batch.thread == 1 and batch.cv_base == 2
        assert batch.n_records == 2 and batch.n_cvs == 3
        assert batch.record_scns == [11, 12]
        assert batch.record_starts == [0, 1]
        assert batch.scns == [11, 12, 12]
        assert log_records(log) == records
        # clipped to the log; an empty range is an empty batch
        assert log.batch(3, 99).record_scns == [13]
        assert log.batch(4, 9).n_records == log.batch(2, 2).n_cvs == 0

    def test_append_returns_the_offset_row_address_reads(self):
        """``append`` returns the log offset of its record's last CV, and
        ``row_address`` reads that CV's ``(object_id, dba, slot)`` back:
        all a transaction keeps of a statement."""
        log = RedoLog(1)
        begin = (
            int(CVOp.TXN_BEGIN), txn_table_dba(1), 0, 0, X, -1, None, None
        )
        insert = (int(CVOp.INSERT), 5, 9, 0, X, 3, (1,), None)
        update = (int(CVOp.UPDATE), 6, 8, 0, X, 2, (2,), ("c",))
        first = log.append(1, 10, (begin, insert))
        second = log.append(1, 11, (update,))
        assert (first, second) == (1, 2)
        assert log.row_address(first) == (9, 5, 3)
        assert log.row_address(second) == (8, 6, 2)
        batch = log.batch(0, len(log))
        assert [log.row_address(i) for i in range(batch.n_cvs)] == list(
            zip(batch.object_ids, batch.dbas, batch.slots)
        )

    def test_scn_range_brackets_inclusive_bounds(self):
        log = RedoLog(1)
        for scn in (10, 12, 12, 15):
            log.append(1, scn, (ROW,))
        assert log.scn_range(12, 12) == (1, 3)
        assert log.scn_range(11, 14) == (1, 3)
        assert log.scn_range(0, 10) == (0, 1)
        assert log.scn_range(16, 99) == (4, 4)


class TestLogReader:
    """Readers are positions into the log: nothing is consumed."""

    def test_reader_consumes_in_order(self):
        log = RedoLog(1)
        for scn in (10, 11, 12):
            log.append(1, scn, (ROW,))
        assert log.batch(0, 1).record_scns == [10]
        assert log.batch(1, 6).record_scns == [11, 12]
        assert log.batch(3, 6).n_records == 0

    def test_independent_readers(self):
        log = RedoLog(1)
        log.append(1, 10, (ROW,))
        first, second = log.batch(0, 1), log.batch(0, 1)
        assert first is not second
        assert first.record_scns == second.record_scns

    @pytest.mark.parametrize("lo", [0, 1])
    def test_a_shipped_batch_does_not_change_when_the_log_grows(self, lo):
        """Each column of a batch is its own copy: the appends after a
        shipment, the cuts the receiver and merger make of it and a FAL
        fetch of the same range leave every value it was cut with."""
        log = RedoLog(1)
        for record in (
            rec(10, ops=(CVOp.TXN_BEGIN, CVOp.INSERT)),
            rec(11),
            rec(12, ops=(CVOp.INSERT, CVOp.INSERT)),
            rec(13, ops=(CVOp.TXN_COMMIT,)),
        ):
            append_record(log, record)
        shipped = log.batch(lo, 4)
        names = CVBatch.__slots__
        cut = {name: copy.deepcopy(getattr(shipped, name)) for name in names}
        for scn in range(14, 40):
            append_record(log, rec(scn, ops=(CVOp.INSERT, CVOp.DELETE)))
        tail = shipped.slice_records(2 - lo, 4 - lo)
        head, rest = shipped.split_at_scn(11)
        fetched = log.batch(lo, 4)
        assert (tail.cv_base, tail.record_starts) == (3, [0, 2])
        assert (head.last_scn, rest.scn) == (11, 12)
        for name in names:
            assert getattr(shipped, name) == cut[name], name
            assert getattr(fetched, name) == cut[name], name

    def test_reader_sees_later_appends(self):
        log = RedoLog(1)
        assert log.batch(0, 5).n_records == 0
        log.append(1, 10, (ROW,))
        before = log.batch(0, 5)
        log.append(1, 11, (ROW,))
        assert log.batch(0, 5).n_records == 2
        # a batch already cut never changes
        assert before.n_records == 1 and before.rows == [(1,)]
