"""Identifier types used across the system.

The paper's protocol messages are keyed by a small set of identifiers:

* ``DBA`` -- database block address; every redo change vector targets one.
* ``RowId`` -- (DBA, slot) pair addressing one row in the row store.
* ``ObjectId`` -- a table / partition segment number.
* ``TenantId`` -- multi-tenant container id (used by coarse invalidation).
* ``TransactionId`` -- (instance, sequence) pair; unique across the cluster.
* ``InstanceId`` / ``WorkerId`` -- RAC instance and recovery-worker numbers.

Plain ``int`` aliases are used where there is no structure to enforce; the
structured ids are small immutable value types so they hash and order cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

# A database block address.  Blocks are allocated from a database-wide
# counter, so a bare int is sufficient and keeps hashing cheap: the parallel
# apply engine hashes millions of DBAs.
DBA = int

# Segment (table / partition / index) number.
ObjectId = int

# Multi-tenant container id.  Tenant 0 is the root container.
TenantId = int

# RAC instance number (1-based, matching Oracle's thread#).
InstanceId = int

# Recovery worker slot number within one apply session.
WorkerId = int


@dataclass(frozen=True, slots=True, order=True)
class RowId:
    """Physical address of a row: block address plus slot within the block."""

    dba: DBA
    slot: int

    def __repr__(self) -> str:  # compact: shows up in lots of debug output
        return f"RowId({self.dba}.{self.slot})"


class TransactionId(NamedTuple):
    """Cluster-wide unique transaction identifier.

    ``instance`` is the RAC instance that started the transaction and
    ``sequence`` a per-instance monotonically increasing number.  This mirrors
    Oracle's XID (undo segment, slot, sequence) closely enough for the
    journal's purposes: the IM-ADG Journal hashes on the whole id.

    A named tuple rather than a dataclass: every journal, commit-table and
    transaction-table lookup hashes one, and a tuple hashes (to the same
    value) and compares without entering the interpreter.
    """

    instance: InstanceId
    sequence: int

    def __repr__(self) -> str:
        return f"XID({self.instance}.{self.sequence})"
