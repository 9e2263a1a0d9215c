"""Transactions: lifecycle, commit SCN assignment and redo generation.

The transaction manager is the primary-side glue between the row store and
the redo layer: every DML statement mutates blocks *and* emits the change
vectors the standby will replay.  Commit records carry the section III-E
"modifies an IMCS-enabled object" flag when specialized redo generation is
enabled.
"""

from repro.txn.table import TransactionTable, TxnState
from repro.txn.manager import Transaction, TransactionManager

__all__ = [
    "TransactionTable",
    "TxnState",
    "Transaction",
    "TransactionManager",
]
