"""Tests for the transaction table."""

import pytest

from repro.common import InvalidStateError, TransactionId
from repro.txn import TransactionTable, TxnState

from tests.helpers import txn_state

X1 = TransactionId(1, 1)


def test_begin_then_commit():
    table = TransactionTable()
    table.begin(X1)
    assert txn_state(table, X1) is TxnState.ACTIVE
    assert table.commit_scn_of(X1) is None
    table.commit(X1, 50)
    assert txn_state(table, X1) is TxnState.COMMITTED
    assert table.commit_scn_of(X1) == 50


def test_begin_twice_raises():
    table = TransactionTable()
    table.begin(X1)
    with pytest.raises(InvalidStateError):
        table.begin(X1)


def test_abort():
    table = TransactionTable()
    table.begin(X1)
    table.abort(X1)
    assert txn_state(table, X1) is TxnState.ABORTED
    assert table.commit_scn_of(X1) is None
    assert txn_state(table, X1) in (TxnState.COMMITTED, TxnState.ABORTED)


def test_commit_after_abort_raises():
    table = TransactionTable()
    table.begin(X1)
    table.abort(X1)
    with pytest.raises(InvalidStateError):
        table.commit(X1, 70)


def test_ensure_known_is_idempotent_and_preserves_state():
    table = TransactionTable()
    table.ensure_known(X1)
    assert txn_state(table, X1) is TxnState.ACTIVE
    table.commit(X1, 10)
    table.ensure_known(X1)
    assert txn_state(table, X1) is TxnState.COMMITTED


def test_commit_without_begin_allowed_for_recovery():
    """The standby may apply a commit CV for a transaction whose begin
    predates its clone point."""
    table = TransactionTable()
    table.commit(X1, 10)
    assert table.commit_scn_of(X1) == 10
