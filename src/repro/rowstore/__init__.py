"""The row store: Oracle's traditional on-disk format, in miniature.

This package implements the substrate the paper's protocols are defined
against:

* block-structured heap segments addressed by DBA (``block.py``,
  ``segment.py``),
* per-block version stores that stand in for undo, enabling SCN-based
  Consistent Read (``block.py``, ``cr.py``),
* heap tables with optional hash/range partitions and hash indexes
  (point lookups; NULL keys not indexed) (``table.py``, ``index.py``),
* a buffer cache fronting the "datafiles" (``buffer_cache.py``).

Everything a transaction changes here is describable as a *change vector*
against one DBA -- which is exactly what the redo layer ships to the
standby, and what the standby's recovery workers re-apply to an identical
block structure (physical replication).
"""

from repro.rowstore.values import Column, ColumnType, Schema
from repro.rowstore.block import DataBlock
from repro.rowstore.segment import BlockStore, Segment
from repro.rowstore.table import Partition, Table
from repro.rowstore.index import HashIndex
from repro.rowstore.buffer_cache import BufferCache
from repro.rowstore.cr import TransactionView, visible_values
from repro.rowstore.undo_retention import UndoRetentionManager

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "DataBlock",
    "BlockStore",
    "Segment",
    "Partition",
    "Table",
    "HashIndex",
    "BufferCache",
    "TransactionView",
    "visible_values",
    "UndoRetentionManager",
]
