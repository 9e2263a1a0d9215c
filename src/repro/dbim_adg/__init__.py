"""DBIM-on-ADG: the paper's core contribution.

Keeps the standby's In-Memory Column Store transactionally consistent at
every published QuerySCN, using only the redo stream:

* the **Mining Component** (``mining.py``) piggybacks on recovery workers
  and sniffs every change vector, producing invalidation records for
  IMCS-enabled objects plus transaction control information;
* the **IM-ADG Journal** (``journal.py``) buffers invalidation records per
  transaction in a hash table with per-worker buffer areas (paper, III-C,
  Fig. 7; a scheduler step stands in for its bucket latches);
* the **IM-ADG Commit Table** (``commit_table.py``) keeps commitSCN-sorted,
  partitioned lists of committed transactions with one-step access to their
  journal anchors (paper, III-D-1, Fig. 8);
* the **Invalidation Flush Component** (``flush.py``) chops the commit
  table into a worklink at QuerySCN advancement, organises each
  transaction's records into invalidation groups and flushes them to the
  SMUs -- cooperatively, using the recovery workers (paper, III-D-2);
* the **DDL Information Table** (``ddl.py``) buffers redo markers so IMCUs
  are dropped when the object definition changes (paper, III-G).

The restart/coarse-invalidation protocol of section III-E is implemented
across ``mining.py`` (missing-begin detection, commit-record flag) and
``flush.py`` (tenant-wide coarse invalidation).
"""

from repro.dbim_adg.journal import AnchorNode, IMADGJournal, RecordChunk
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable
from repro.dbim_adg.ddl import DDLEntry, DDLInformationTable
from repro.dbim_adg.mining import MiningComponent
from repro.dbim_adg.flush import (
    InvalidationFlushComponent,
    InvalidationGroup,
    LocalInvalidationRouter,
    Worklink,
)

__all__ = [
    "AnchorNode",
    "IMADGJournal",
    "RecordChunk",
    "CommitTableNode",
    "IMADGCommitTable",
    "DDLEntry",
    "DDLInformationTable",
    "MiningComponent",
    "InvalidationFlushComponent",
    "InvalidationGroup",
    "LocalInvalidationRouter",
    "Worklink",
]
