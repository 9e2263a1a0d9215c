"""The Mining Component (paper, section III-B, Fig. 6).

"The DBIM-on-ADG Mining Component piggybacks on the recovery workers to
'sniff' each CV.  If the CV modifies an object that is specified to be
loaded in the IMCS on the Standby database, a tuple consisting of the
Object Identifier, Data Block Identifier (DBA) and the list of changed rows
in the data block is noted down in the IM-ADG Journal. [...]  In addition
to mining changes to the data in the IMCS, DBIM-on-ADG protocols need to
mine certain control information [...] viz. transaction state changes like
Transaction Begin, Prepare, Commit and Abort and the commitSCN associated
with each transaction."  Two-phase commit is not modelled: no
transaction prepares, so begin, commit and abort are the states mined.

``sniff_chunk`` is installed as the recovery workers' batch sniffer: it
mines a worker's whole :class:`~repro.redo.batch.CVChunk` in one call,
before any of it is applied.  Every source of redo -- live shipments, FAL
gap fills, MIRA apply instances, the instant-restart tail replay -- reaches
mining through it.

Restart protocol (section III-E): a mined commit record whose transaction
has no 'begin' in the journal is a pre-restart transaction.  If the commit
record's flag says it modified IMCS-enabled objects -- or specialized redo
generation is off and we must be pessimistic -- a *coarse* commit-table
node is created, whose flush invalidates every IMCU of the tenant.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import obs
from repro.common.ids import TransactionId, WorkerId
from repro.common.scn import SCN
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.journal import IMADGJournal, RecordChunk
from repro.imcs.imcu import ROW_KEY_SHIFT
from repro.imcs.store import InMemoryColumnStore
from repro.redo.batch import (
    MINE_CLASS, MINE_DATA, MINE_SPECIAL, CVBatch, CVChunk,
)
from repro.redo.records import CVOp

_TXN_BEGIN, _TXN_COMMIT, _TXN_ABORT = (
    CVOp.TXN_BEGIN, CVOp.TXN_COMMIT, CVOp.TXN_ABORT,
)
_DDL_MARKER = CVOp.DDL_MARKER


class MiningComponent:
    """Sniffs change vectors during redo apply."""

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
        self.data_records_mined = 0
        self.control_records_mined = 0
        self.ddl_markers_mined = 0
        #: Always 0 since a sniff cannot miss; kept because the bench_e2e
        #: harness reports it.
        self.latch_misses = 0
        self.coarse_nodes_created = 0
        #: Missing-begin commits skipped during instant-restart tail replay.
        self.tail_commits_skipped = 0
        obs.bind(self, {
            "data_records_mined": "dbim.miner.data_records",
            "control_records_mined": "dbim.miner.control_records",
            "ddl_markers_mined": "dbim.miner.ddl_markers",
            "latch_misses": "dbim.miner.latch_misses",
            "coarse_nodes_created": "dbim.miner.coarse_nodes",
            "tail_commits_skipped": "dbim.miner.tail_commits_skipped",
        })
        #: CVs per bulk-mined chunk.
        self._batch_cvs = obs.histogram("dbim.mine.batch_cvs")

    # ------------------------------------------------------------------
    def sniff_chunk(self, chunk: CVChunk, worker_id: WorkerId) -> None:
        """Mine a worker's chunk from its apply cursor ``pos`` on, in one
        walk over its CVs in plain Python, reading the batch's per-CV
        lists: the data CVs of IMCS-enabled objects -- nothing changes the
        enabled set within a call -- are grouped by transaction and
        journaled first (:meth:`_mine_data`), then the *special* CVs the
        same walk found (transaction state changes and DDL markers) are
        mined one at a time, in order, and the chunk's commits enter the
        commit table in one :meth:`IMADGCommitTable.insert_batch`.

        Data before specials is unobservable at any published QuerySCN:
        an anchor is created by whichever CV of its transaction is mined
        first (data and the begin CV hash to different workers anyway); a
        commit's node holds a pointer to the anchor, and the chop is
        gated behind the chunk being fully *applied*, which requires it
        mined; no minable CV of a transaction follows its abort in SCN
        order; a DDL marker only enters the SCN-keyed DDL table.
        """
        if not chunk.stats_noted:
            chunk.stats_noted = True
            self._batch_cvs.observe(chunk.n_cvs)
        indices = chunk.indices[chunk.pos :]
        batch = chunk.batch
        ops, xids, object_ids, scns = (
            batch.ops, batch.xids, batch.object_ids, batch.scns
        )
        enabled = self.imcs.enabled_object_ids
        tracer = obs.tracer_of(self._obs)
        # transaction -> its data CVs' batch positions
        runs: dict[TransactionId, list[int]] = {}
        specials = []
        for i in indices:
            mine = MINE_CLASS[ops[i]]
            if mine == MINE_SPECIAL:
                specials.append(i)
            elif mine == MINE_DATA and object_ids[i] in enabled:
                runs.setdefault(xids[i], []).append(i)
        if runs:
            self._mine_data(batch, runs, worker_id)
        if tracer is not None:
            for i in indices:
                if MINE_CLASS[ops[i]] != MINE_SPECIAL:
                    tracer.record_mined(scns[i])
        commits: list[CommitTableNode] = []
        for i in specials:
            scn = scns[i]
            self._sniff_special(batch, i, scn, commits)
            if tracer is not None:
                tracer.record_mined(scn)
        if commits:
            self.commit_table.insert_batch(commits)

    def _mine_data(
        self,
        batch: CVBatch,
        runs: dict[TransactionId, list[int]],
        worker_id: WorkerId,
    ) -> None:
        """Journal each transaction's run of data CVs (batch positions,
        ascending, hence in SCN order: a run's first SCN is its lowest),
        in ascending xid, as one :class:`RecordChunk` of plain lists: each
        CV's object id and row key (its slot is -1 for a whole block)."""
        dbas, slots, object_ids = batch.dbas, batch.slots, batch.object_ids
        scns, tenants = batch.scns, batch.tenants
        get_or_create = self.journal.get_or_create
        for xid in sorted(runs):
            run = runs[xid]
            first = run[0]
            tenant = tenants[first]
            get_or_create(xid, tenant).add_chunk(
                worker_id,
                RecordChunk(
                    [object_ids[i] for i in run],
                    [(dbas[i] << ROW_KEY_SHIFT) + slots[i] for i in run],
                    tenant,
                ),
                scns[first],
            )
            self.data_records_mined += len(run)

    def _sniff_special(
        self,
        batch: CVBatch,
        i: int,
        scn: SCN,
        commits: list[CommitTableNode],
    ) -> None:
        """Mine the in-order special CV at batch position ``i`` during a
        chunk walk; a commit's node goes onto ``commits``."""
        op = batch.ops[i]
        if op == _DDL_MARKER:
            self.ddl_table.add(scn, batch.payloads[i])
            self.ddl_markers_mined += 1
            return
        self.control_records_mined += 1
        xid = batch.xids[i]
        if op == _TXN_COMMIT:
            node = self._sniff_commit(batch, i, scn, xid)
            if node is not None:
                commits.append(node)
        elif op == _TXN_BEGIN:
            anchor = self.journal.get_or_create(xid, batch.tenants[i])
            anchor.has_begin = True
            anchor.note_scn(scn)
        elif op == _TXN_ABORT:
            self.journal.remove(xid)
            if self.on_abort is not None:
                self.on_abort(xid, scn)
        else:
            raise ValueError(f"unhandled control op {CVOp(op)!r}")

    def _sniff_commit(
        self, batch: CVBatch, i: int, scn: SCN, xid: TransactionId
    ) -> Optional[CommitTableNode]:
        """The transaction's commit-table node, or None when it has none.
        The commit record's SCN is the commitSCN; its payload is the III-E
        flag."""
        tenant = batch.tenants[i]
        anchor = self.journal.get(xid)
        if anchor is not None and anchor.has_begin:
            return CommitTableNode(
                xid=xid, commit_scn=scn, anchor=anchor, tenant=tenant
            )
        # Missing 'transaction begin': mined state predates an instance
        # restart (paper, III-E).  The commit-record flag decides:
        #   False      -> transaction touched no IMCS object; skip.
        #   True/None  -> coarse invalidation of the tenant's IMCUs
        #                 (None = no specialized redo: be pessimistic).
        if batch.payloads[i] is False:
            return None
        if self.tail_mode:
            # Instant-restart tail replay: a commit whose begin lies below
            # the tail floor belongs to a transaction whose invalidations
            # were flushed into the checkpointed masks before capture (see
            # repro.restart.replay) -- skipping is exact, not pessimistic.
            self.tail_commits_skipped += 1
            return None
        self.coarse_nodes_created += 1
        return CommitTableNode(
            xid=xid, commit_scn=scn, anchor=anchor, tenant=tenant, coarse=True
        )

    def clear(self) -> None:
        """Reset statistics (state lives in the journal/tables)."""
        self.data_records_mined = 0
        self.control_records_mined = 0
        self.ddl_markers_mined = 0
        self.latch_misses = 0
        self.coarse_nodes_created = 0
        self.tail_commits_skipped = 0
