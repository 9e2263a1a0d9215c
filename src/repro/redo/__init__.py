"""Redo generation, logging and shipping.

The redo stream is the *only* channel between the primary and the standby:
every row change, transaction state change and DDL travels as change
vectors inside SCN-stamped redo records (section II-A of the paper).  The
DBIM-on-ADG mining component later sniffs exactly these structures.
"""

from repro.redo.records import (
    CVOp,
    DDLMarkerPayload,
    txn_table_dba,
    ddl_marker_dba,
    truncate_dba,
)
from repro.redo.log import RedoLog
from repro.redo.shipping import LogShipper, RedoReceiver

__all__ = [
    "CVOp",
    "DDLMarkerPayload",
    "txn_table_dba",
    "ddl_marker_dba",
    "truncate_dba",
    "RedoLog",
    "LogShipper",
    "RedoReceiver",
]
