"""The transaction table: cluster-wide transaction state.

Implements the :class:`~repro.rowstore.cr.TransactionView` protocol used by
consistent read.  The primary's transaction manager writes it directly; the
standby's copy is *recovered* -- populated exclusively by replaying
transaction-control change vectors (begin/commit/abort), exactly as
a physical standby learns transaction outcomes only from redo.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.common.errors import InvalidStateError
from repro.common.ids import InstanceId, TransactionId
from repro.common.scn import SCN


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionTable:
    """Maps transaction ids to their state and commit SCN."""

    def __init__(self) -> None:
        self._states: dict[TransactionId, TxnState] = {}
        self._commit_scns: dict[TransactionId, SCN] = {}

    # -- writes ----------------------------------------------------------
    def begin(self, xid: TransactionId) -> None:
        if xid in self._states:
            raise InvalidStateError(f"{xid} already exists")
        self._states[xid] = TxnState.ACTIVE

    def commit(self, xid: TransactionId, commit_scn: SCN) -> None:
        state = self._states.get(xid)
        if state in (TxnState.COMMITTED, TxnState.ABORTED):
            raise InvalidStateError(f"{xid} already finished ({state})")
        self._states[xid] = TxnState.COMMITTED
        self._commit_scns[xid] = commit_scn

    def abort(self, xid: TransactionId) -> None:
        state = self._states.get(xid)
        if state in (TxnState.COMMITTED, TxnState.ABORTED):
            raise InvalidStateError(f"{xid} already finished ({state})")
        self._states[xid] = TxnState.ABORTED

    def ensure_known(self, xid: TransactionId) -> None:
        """Record a transaction seen mid-flight (standby apply may see a
        data CV before any control CV after a restart from a backup)."""
        self._states.setdefault(xid, TxnState.ACTIVE)

    # -- reads (TransactionView) ------------------------------------------
    def commit_scn_of(self, xid: TransactionId) -> Optional[SCN]:
        return self._commit_scns.get(xid)

    def highest_sequence(self, instance: InstanceId) -> int:
        """The highest sequence of ``instance``'s transactions here (0 if
        none)."""
        return max(
            (x.sequence for x in self._states if x.instance == instance),
            default=0,
        )

    def open_transactions(self) -> list[TransactionId]:
        """Transactions still ACTIVE (e.g. for invariant checks: the
        journal may buffer exactly these)."""
        return [
            xid
            for xid, state in self._states.items()
            if state is TxnState.ACTIVE
        ]
