"""The Mining Component (paper, section III-B, Fig. 6).

"The DBIM-on-ADG Mining Component piggybacks on the recovery workers to
'sniff' each CV.  If the CV modifies an object that is specified to be
loaded in the IMCS on the Standby database, a tuple consisting of the
Object Identifier, Data Block Identifier (DBA) and the list of changed rows
in the data block is noted down in the IM-ADG Journal. [...]  In addition
to mining changes to the data in the IMCS, DBIM-on-ADG protocols need to
mine certain control information [...] viz. transaction state changes like
Transaction Begin, Prepare, Commit and Abort and the commitSCN associated
with each transaction."

``sniff_chunk`` is installed as the recovery workers' batch sniffer: it
runs *before* a worker's :class:`~repro.redo.batch.CVChunk` is applied and
returns False on a journal/commit-table latch miss, making the worker retry
the same chunk (from its mining cursor) on its next step.  Every source of
redo -- live shipments, FAL gap fills, MIRA apply instances, the
instant-restart tail replay -- reaches mining through it.

Restart protocol (section III-E): a mined commit record whose transaction
has no 'begin' in the journal is a pre-restart transaction.  If the commit
record's flag says it modified IMCS-enabled objects -- or specialized redo
generation is off and we must be pessimistic -- a *coarse* commit-table
node is created, whose flush invalidates every IMCU of the tenant.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.common.ids import TransactionId, WorkerId
from repro.common.scn import SCN
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.journal import IMADGJournal, RecordChunk
from repro.imcs.store import InMemoryColumnStore
from repro.redo.batch import (
    MINE_DATA,
    MINE_SPECIAL,
    CVBatch,
    CVChunk,
    decode_xid,
)
from repro.redo.records import CVOp

_TXN_BEGIN, _TXN_PREPARE, _TXN_COMMIT, _TXN_ABORT = (
    CVOp.TXN_BEGIN, CVOp.TXN_PREPARE, CVOp.TXN_COMMIT, CVOp.TXN_ABORT,
)
_DDL_MARKER = CVOp.DDL_MARKER


class MiningComponent:
    """Sniffs change vectors during redo apply."""

    data_records_mined = obs.view("_data_records_mined")
    control_records_mined = obs.view("_control_records_mined")
    ddl_markers_mined = obs.view("_ddl_markers_mined")
    latch_misses = obs.view("_latch_misses")
    coarse_nodes_created = obs.view("_coarse_nodes_created")
    #: Missing-begin commits skipped during instant-restart tail replay.
    tail_commits_skipped = obs.view("_tail_commits_skipped")

    def __init__(
        self,
        journal: IMADGJournal,
        commit_table: IMADGCommitTable,
        ddl_table: DDLInformationTable,
        imcs: InMemoryColumnStore,
    ) -> None:
        self.journal = journal
        self.commit_table = commit_table
        self.ddl_table = ddl_table
        self.imcs = imcs
        #: Optional hook fired when a transaction abort is mined (used by
        #: MIRA to garbage-collect the transaction's anchors on *other*
        #: apply instances, which never see the abort control CV).
        self.on_abort: Optional[Callable[[TransactionId, SCN], None]] = None
        #: Instant-restart tail replay (:mod:`repro.restart`): while set,
        #: a mined commit whose transaction has no 'begin' is *skipped*
        #: instead of triggering the III-E coarse invalidation.  The
        #: checkpoint's tail floor proves such a transaction's begin lies
        #: below the replay window, which in turn proves its invalidations
        #: were flushed into the checkpointed SMU masks before capture --
        #: the knowledge whose absence is the whole reason the coarse path
        #: exists.
        self.tail_mode = False
        # statistics
        self._obs = obs.current()
        self._data_records_mined = obs.counter("dbim.miner.data_records")
        self._control_records_mined = obs.counter(
            "dbim.miner.control_records"
        )
        self._ddl_markers_mined = obs.counter("dbim.miner.ddl_markers")
        self._latch_misses = obs.counter("dbim.miner.latch_misses")
        self._coarse_nodes_created = obs.counter("dbim.miner.coarse_nodes")
        self._tail_commits_skipped = obs.counter(
            "dbim.miner.tail_commits_skipped"
        )
        #: CVs per bulk-mined chunk.
        self._batch_cvs = obs.histogram("dbim.mine.batch_cvs")

    # ------------------------------------------------------------------
    def _sniff_control(
        self, op: int, batch: CVBatch, i: int, scn: SCN, owner: object
    ) -> bool:
        xid = batch.xid_objects[i]
        if op == _TXN_BEGIN or op == _TXN_PREPARE:
            anchor = self.journal.get_or_create(
                xid, batch.tenants.item(i), owner
            )
            if anchor is None:
                self._latch_misses.inc()
                return False
            if op == _TXN_BEGIN:
                anchor.has_begin = True
            else:
                anchor.prepared = True
            anchor.note_scn(scn)
            self._control_records_mined.inc()
            return True
        if op == _TXN_ABORT:
            removed = self.journal.remove(xid, owner)
            if removed is None:
                self._latch_misses.inc()
                return False
            self._control_records_mined.inc()
            if self.on_abort is not None:
                self.on_abort(xid, scn)
            return True
        raise ValueError(f"unhandled control op {CVOp(op)!r}")

    # ------------------------------------------------------------------
    def sniff_chunk(
        self, chunk: CVChunk, worker_id: WorkerId, owner: object
    ) -> bool:
        """Mine a worker's whole chunk: every data CV in one pass
        (:meth:`_mine_data`), then the *special* positions (transaction
        state changes and DDL markers) one at a time, in order.

        Data before specials is unobservable at any published QuerySCN:
        an anchor is created by whichever CV of its transaction is mined
        first (data and the begin CV hash to different workers anyway); a
        commit's node holds a pointer to the anchor, and the chop is
        gated behind the chunk being fully *applied*, which requires it
        fully mined; no minable CV of a transaction follows its abort in
        SCN order; a DDL marker only enters the SCN-keyed DDL table.
        For the same reason commit-table inserts are deferred into one
        :meth:`IMADGCommitTable.insert_batch` at the end of the chunk.
        Returns False on a latch miss; partial progress stays on the
        chunk (``data_mined`` / ``mined_xids`` / ``mined_pos`` /
        ``pending_commits``) and the worker retries next step.
        """
        indices = chunk.indices
        n = len(indices)
        if not chunk.stats_noted:
            chunk.stats_noted = True
            self._batch_cvs.observe(n)
        batch = chunk.batch
        tracer = obs.tracer_of(self._obs)
        classes = batch.mine_class[indices]
        if not chunk.data_mined:
            start = chunk.mined_pos
            data = indices[start:][classes[start:] == MINE_DATA]
            if not self._mine_data(chunk, data, worker_id, owner):
                return False
            chunk.data_mined = True
            chunk.mined_xids = None
            if tracer is not None:
                plain = indices[start:][classes[start:] != MINE_SPECIAL]
                for scn in batch.scns[plain].tolist():
                    tracer.record_mined(scn)
        for pos in (classes == MINE_SPECIAL).nonzero()[0].tolist():
            if pos < chunk.mined_pos:
                continue  # mined before a latch miss, or applied
            i = int(indices[pos])
            scn = int(batch.scns[i])
            if not self._sniff_special(batch, i, scn, chunk, owner):
                chunk.mined_pos = pos
                return False
            chunk.mined_pos = pos + 1
            if tracer is not None:
                tracer.record_mined(scn)
        chunk.mined_pos = n
        if chunk.pending_commits:
            leftover = self.commit_table.insert_batch(
                chunk.pending_commits, owner
            )
            if leftover:
                self._latch_misses.inc()
                chunk.pending_commits = leftover
                return False
            chunk.pending_commits = None
        return True

    def _mine_data(
        self,
        chunk: CVChunk,
        data: np.ndarray,
        worker_id: WorkerId,
        owner: object,
    ) -> bool:
        """Journal the data CVs at batch positions ``data`` (ascending,
        hence SCN order): keep the CVs of IMCS-enabled objects -- nothing
        changes the enabled set within a call -- gather what mining reads
        of them once for the whole chunk, group by transaction with one
        stable sort, and append each transaction's run to its anchor as a
        slice of that gather."""
        batch = chunk.batch
        data = data[self.imcs.enabled_mask(batch.object_ids[data])]
        n = data.size
        if not n:
            return True
        columns = batch.mined_columns[:, data]
        columns = columns[:, np.argsort(columns[4], kind="stable")]
        xids = columns[4]
        starts = [0, *((xids[1:] != xids[:-1]).nonzero()[0] + 1).tolist()]
        # per run: the lowest SCN (its first, the sort being stable), the
        # xid code and the tenant
        first_scns, codes, tenants = columns[3:, starts].tolist()
        records = columns[:4]
        mined = chunk.mined_xids
        if mined is None:
            mined = chunk.mined_xids = set()
        get_or_create = self.journal.get_or_create
        for code, tenant, first_scn, lo, hi in zip(
            codes, tenants, first_scns, starts, [*starts[1:], n]
        ):
            if code in mined:
                continue  # journaled before a latch miss
            anchor = get_or_create(decode_xid(code), tenant, owner)
            if anchor is None:
                self._latch_misses.inc()
                return False
            anchor.add_chunk(
                worker_id, RecordChunk(records[:, lo:hi], tenant), first_scn
            )
            self._data_records_mined.inc(hi - lo)
            mined.add(code)
        return True

    def _sniff_special(
        self, batch: CVBatch, i: int, scn: SCN, chunk: CVChunk, owner: object
    ) -> bool:
        """Mine the in-order special CV at batch position ``i`` during a
        chunk walk."""
        op = batch.ops.item(i)
        if op == _DDL_MARKER:
            self.ddl_table.add(scn, batch.payloads[i])
            self._ddl_markers_mined.inc()
            return True
        if op == _TXN_COMMIT:
            return self._sniff_commit(batch, i, scn, chunk, owner)
        return self._sniff_control(op, batch, i, scn, owner)

    def _sniff_commit(
        self, batch: CVBatch, i: int, scn: SCN, chunk: CVChunk, owner: object
    ) -> bool:
        """Build the transaction's commit-table node onto the chunk's
        ``pending_commits`` (one ``insert_batch`` per chunk).  The commit
        record's SCN is the commitSCN; its payload is the III-E flag."""
        xid = batch.xid_objects[i]
        tenant = batch.tenants.item(i)
        acquired, anchor = self.journal.get(xid, owner)
        if not acquired:
            self._latch_misses.inc()
            return False
        if anchor is not None and anchor.has_begin:
            node = CommitTableNode(
                xid=xid, commit_scn=scn, anchor=anchor, tenant=tenant
            )
        else:
            # Missing 'transaction begin': mined state predates an instance
            # restart (paper, III-E).  The commit-record flag decides:
            #   False      -> transaction touched no IMCS object; skip.
            #   True/None  -> coarse invalidation of the tenant's IMCUs
            #                 (None = no specialized redo: be pessimistic).
            if batch.payloads[i] is False:
                self._control_records_mined.inc()
                return True
            if self.tail_mode:
                # Instant-restart tail replay: a commit whose begin lies
                # below the tail floor belongs to a transaction whose
                # invalidations were flushed into the checkpointed masks
                # before capture (see repro.restart.replay) -- skipping is
                # exact, not pessimistic.
                self._tail_commits_skipped.inc()
                self._control_records_mined.inc()
                return True
            node = CommitTableNode(
                xid=xid, commit_scn=scn, anchor=anchor, tenant=tenant,
                coarse=True,
            )
            self._coarse_nodes_created.inc()
        if chunk.pending_commits is None:
            chunk.pending_commits = []
        chunk.pending_commits.append(node)
        self._control_records_mined.inc()
        return True

    def clear(self) -> None:
        """Reset statistics (state lives in the journal/tables)."""
        self.data_records_mined = 0
        self.control_records_mined = 0
        self.ddl_markers_mined = 0
        self.latch_misses = 0
        self.coarse_nodes_created = 0
        self.tail_commits_skipped = 0
