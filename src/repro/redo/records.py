"""Redo records and change vectors.

Vocabulary (paper, section II-A):

* A **redo record** is stamped with one SCN -- "all CVs in a redo record
  are considered to have been generated at the same SCN".
* A **change vector (CV)** applies to exactly one database block,
  identified by its DBA, and is tagged with a transaction id.
* A transaction's **commit record** is a CV applied to a special block; its
  SCN is the transaction's commitSCN.  Per section III-E the primary may
  annotate it with a flag saying whether the transaction modified any
  object enabled for IMCS population ("specialized redo generation").
* **Redo markers** (section III-G) describe changes to non-persistent
  objects (the IMCUs) in response to DDL; they are mined, never applied to
  data blocks.

Transaction control CVs target per-instance transaction-table blocks and
DDL markers target reserved marker DBAs; both DBA ranges are negative so
they can never collide with heap blocks allocated by the block store, yet
they still hash to apply workers like any other DBA (so control CVs ride
the normal parallel-apply paths, as in the paper).

Redo has one representation, columns (:mod:`repro.redo.log`): a writer
hands :meth:`~repro.redo.log.RedoLog.append` a record's CVs as rows
``(op, dba, object_id, tenant, xid, slot, row, payload)``.  ``slot`` is
the row slot of a data CV (-1 otherwise), ``row`` the full row tuple of
an INSERT / UPDATE (new values) / DELETE (old values), and ``payload``
whatever else apply cannot read elsewhere: an UPDATE's changed column
names, a commit's section III-E flag (True / False, or None when
specialized redo generation is off; its commitSCN *is* the record's SCN),
a marker's :class:`DDLMarkerPayload`, None for every other op.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.ids import DBA, InstanceId, ObjectId


def txn_table_dba(instance: InstanceId) -> DBA:
    """The transaction-table block for one primary instance."""
    return -instance


def ddl_marker_dba(object_id: ObjectId) -> DBA:
    """The reserved marker DBA for DDL against one object."""
    return -100_000 - object_id


def truncate_dba(object_id: ObjectId) -> DBA:
    """The reserved DBA for a segment-level TRUNCATE change vector."""
    return -200_000 - object_id


class CVOp(enum.IntEnum):
    """Change vector operation codes.

    The integer value is the code the redo log's op column stores (and
    the index into per-op lookup tables such as ``MINE_CLASS``)."""

    INSERT = 0
    UPDATE = 1
    DELETE = 2
    #: Compensating change written by rollback (Oracle: applying undo
    #: generates redo); physically strips the aborted version at a slot.
    UNDO = 3
    TXN_BEGIN = 4
    TXN_COMMIT = 5
    TXN_ABORT = 6
    TRUNCATE = 7
    DDL_MARKER = 8
    #: Periodic no-op redo written by idle instances so the standby's
    #: merge watermark keeps moving (see repro.adg.merger).
    HEARTBEAT = 9


@dataclass(frozen=True, slots=True)
class DDLMarkerPayload:
    """Describes a schema change for the mining component.

    ``kind`` is one of 'drop_column', 'truncate', 'drop_table',
    'create_table', 'alter_no_inmemory'.  ``detail`` carries kind-specific
    data (e.g. the column name, or a serialised table definition).
    """

    kind: str
    object_ids: tuple[ObjectId, ...]
    table_name: str
    detail: dict = field(default_factory=dict)
