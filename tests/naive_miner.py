"""A naive reference model of DBIM-on-ADG mining (paper, III-B..D).

Not the production algorithm re-hosted: no batches, no arrays, no latches,
no per-worker areas, no commit table.  It reads redo records one change
vector at a time and keeps the one thing the paper says mining must
produce -- for every transaction, the set of ``(object, dba, slot)`` it
changed in IMCS-enabled objects -- under four rules:

* **data**: INSERT/UPDATE/DELETE on an enabled object adds its
  ``(object, dba, slot)``; a data change with no slot marks the *whole
  block*, which is a barrier: it subsumes every slot of that block;
* **commit**: the transaction's set becomes due at its commitSCN;
* **abort**: the set is discarded (UNDO restores the committed state the
  IMCU already holds, so it adds nothing);
* **TRUNCATE**: never journaled -- the IMCU drop rides the DDL marker.

``due_through(scn)`` then answers what the flush must have routed by the
time ``scn`` is published: per commitSCN, ``{(object, dba): slots}`` with
``()`` meaning the whole block (the ``InvalidationGroup.blocks``
convention).  Standby restarts (missing-begin commits, coarse
invalidation) are outside the model.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.common.ids import TransactionId
from repro.common.scn import SCN
from repro.redo.records import CVOp

from tests.naive_batch import RedoRecord

Blocks = dict[tuple[int, int], tuple[int, ...]]

_DATA_OPS = (CVOp.INSERT, CVOp.UPDATE, CVOp.DELETE)


def blocks_of(touched: Iterable[tuple[int, int, Optional[int]]]) -> Blocks:
    """Fold ``(object, dba, slot)`` triples per block; whole block wins."""
    slots_by_block: dict[tuple[int, int], set] = {}
    for object_id, dba, slot in touched:
        slots_by_block.setdefault((object_id, dba), set()).add(slot)
    return {
        block: () if None in slots else tuple(sorted(slots))
        for block, slots in slots_by_block.items()
    }


class NaiveMiner:
    def __init__(self, is_enabled: Callable[[int], bool]) -> None:
        self.is_enabled = is_enabled
        #: xid -> {(object, dba, slot-or-None)} of uncommitted changes.
        self.open: dict[TransactionId, set] = {}
        #: commitSCN -> blocks the flush must route for that transaction.
        self.committed: dict[SCN, Blocks] = {}

    def feed(self, record: RedoRecord) -> None:
        for cv in record.cvs:
            if cv.op is CVOp.TXN_BEGIN:
                self.open.setdefault(cv.xid, set())
            elif cv.op in _DATA_OPS:
                if self.is_enabled(cv.object_id):
                    slot = getattr(cv.payload, "slot", None)
                    self.open.setdefault(cv.xid, set()).add(
                        (cv.object_id, cv.dba, slot)
                    )
            elif cv.op is CVOp.TXN_ABORT:
                self.open.pop(cv.xid, None)
            elif cv.op is CVOp.TXN_COMMIT:
                touched = self.open.pop(cv.xid)
                self.committed[cv.payload.commit_scn] = blocks_of(touched)

    def due_through(self, scn: SCN) -> dict[SCN, Blocks]:
        """Non-empty invalidations of every commit at or below ``scn``."""
        return {
            commit_scn: blocks
            for commit_scn, blocks in self.committed.items()
            if commit_scn <= scn and blocks
        }
