"""The Invalidation Flush Component (paper, sections III-D and III-F).

At QuerySCN advancement the recovery coordinator chops the IM-ADG Commit
Table into a **worklink** of commit-table nodes whose transactions have
commitSCN at or below the target.  For each node, the component gathers the
transaction's invalidation records through the one-step anchor reference,
organises them into **invalidation groups** (per object, chunked by block)
and routes each group to the SMUs -- directly on this instance, or over the
interconnect on RAC (the router abstraction; see ``repro.rac``).

Flush is on the critical path of QuerySCN publication, so two paper
optimisations are implemented:

* **cooperative flush** -- recovery workers drain worklink batches between
  apply batches (their ``flush_helper`` hook calls :meth:`worker_flush`);
* **commit-table partitioning** -- the chop concatenates per-partition
  prefixes instead of walking one global list.

DDL markers whose SCN is covered by the target are processed during
``begin_advance``: the object's IMCUs are dropped and the schema change is
applied, *before* the new QuerySCN becomes visible to queries.

On a RAC standby one component serves every instance: DDL drops units in
every instance's store, and with MIRA (paper, V) every apply instance mines
into its own journal, commit table and DDL table -- the chop takes all the
commit tables, a transaction's records are gathered from every journal and
retired from all of them, and an aborted transaction's anchors on
instances that never saw the abort are collected once every apply
instance has passed it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence

from repro import obs
from repro.chaos import sites
from repro.common.ids import ObjectId, TenantId, TransactionId, WorkerId
from repro.common.scn import SCN
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.journal import IMADGJournal, RecordChunk
from repro.imcs.imcu import ROW_KEY_SHIFT
from repro.imcs.store import InMemoryColumnStore, InvalidationGroup
from repro.redo.records import DDLMarkerPayload
from repro.sim.scheduler import wake


@dataclass(frozen=True, slots=True)
class CoarseInvalidation:
    """Every IMCU of a tenant, at one commitSCN (paper, III-E)."""

    tenant: TenantId
    commit_scn: SCN


def gather_groups(
    transactions: Sequence[tuple[SCN, Sequence[RecordChunk]]],
    block_limit: Optional[int] = None,
) -> list[list[InvalidationGroup]]:
    """Organise the mined records of ``(commitSCN, chunks)`` transactions
    -- everything one worklink drain call flushes -- into each
    transaction's invalidation groups (paper, III-D: "chunks them up into
    invalidation groups based on the DBA ranges for IMCUs").

    Per transaction, each object's row keys from every chunk are sorted
    once, so a block's records run together with a whole block
    (``row_keys(dba, -1)``) first: a DBA lands in exactly one group of its
    transaction with its full slot set -- whole block wins, slot sets
    union -- and a group's ``keys`` and ``whole_blocks`` are sorted,
    distinct lists.  ``block_limit`` caps *distinct DBAs* per group (RAC
    message sizing); None means one group per transaction and object.
    """
    out: list[list[InvalidationGroup]] = []
    for commit_scn, chunks in transactions:
        groups: list[InvalidationGroup] = []
        out.append(groups)
        by_object: defaultdict[ObjectId, list[int]] = defaultdict(list)
        for chunk in chunks:
            for object_id, key in zip(chunk.object_ids, chunk.keys):
                by_object[object_id].append(key)
        for object_id in sorted(by_object):
            group = last_dba = last_key = None
            for key in sorted(by_object[object_id]):
                dba = (key + 1) >> ROW_KEY_SHIFT
                if dba != last_dba:  # a new block...
                    if group is None or n_blocks == block_limit:
                        # ...and a new group
                        group = InvalidationGroup(
                            object_id, chunks[0].tenant, commit_scn, [], []
                        )
                        groups.append(group)
                        n_blocks = 0
                    last_dba = dba
                    n_blocks += 1
                    whole = key + 1 == dba << ROW_KEY_SHIFT
                    if whole:
                        group.whole_blocks.append(dba)
                    else:
                        group.keys.append(key)
                elif not whole and key != last_key:
                    group.keys.append(key)
                last_key = key
    return out


def routing_ops(
    nodes: Sequence[CommitTableNode],
    chunks_of: Callable[[CommitTableNode], Sequence[RecordChunk]],
    block_limit: Optional[int] = None,
) -> list[list[InvalidationGroup | CoarseInvalidation]]:
    """What each of one drain call's nodes owes the router: its
    transaction's invalidation groups, or -- a coarse node -- one
    :class:`CoarseInvalidation`."""
    gathered = gather_groups(
        [
            (node.commit_scn, () if node.coarse else chunks_of(node))
            for node in nodes
        ],
        block_limit,
    )
    return [
        [CoarseInvalidation(node.tenant, node.commit_scn)]
        if node.coarse
        else groups
        for node, groups in zip(nodes, gathered)
    ]


class LocalInvalidationRouter:
    """Applies invalidations to this instance's IMCS directly."""

    def __init__(self, store: InMemoryColumnStore) -> None:
        self.store = store
        self.groups_routed = 0

    def route(
        self, ops: Sequence[InvalidationGroup | CoarseInvalidation]
    ) -> None:
        """Apply one drain call's invalidations: every group at once --
        one mask write per touched SMU -- and the coarse ones, which
        commute with them."""
        groups = []
        for op in ops:
            if isinstance(op, CoarseInvalidation):
                self.store.invalidate_tenant(op.tenant, op.commit_scn)
            else:
                groups.append(op)
        self.store.invalidate_groups(groups)
        self.groups_routed += len(groups)

    def drained(self) -> bool:
        return True  # local application is synchronous


class InvalidationListener:
    """Observer interface for flushed invalidations.

    The flush component notifies listeners *while* draining the worklink,
    i.e. before the coordinator publishes the new QuerySCN -- so a
    listener (the CDC egress, the checkpoint store) has seen every change
    a published QuerySCN covers.
    """

    def on_group_flushed(self, group: "InvalidationGroup") -> None:
        """A flushed invalidation group: its object, commitSCN and the
        touched row addresses."""

    def on_coarse_invalidation(self, tenant: TenantId, scn: SCN) -> None:
        """A coarse (tenant-wide) invalidation was routed (paper, III-E)."""

    def on_object_dropped(self, object_id: ObjectId, scn: SCN) -> None:
        """A DDL marker dropped/disabled ``object_id``'s IMCUs."""


@dataclass(slots=True)
class Worklink:
    """The chopped-off commit-table prefix being flushed (paper, Fig. 8)."""

    target_scn: SCN
    nodes: deque[CommitTableNode]
    created: int = 0

    def __post_init__(self) -> None:
        self.created = len(self.nodes)

    @property
    def remaining(self) -> int:
        return len(self.nodes)


class InvalidationFlushComponent:
    """Implements the coordinator's AdvanceProtocol for DBIM-on-ADG."""

    def __init__(
        self,
        journal: IMADGJournal,
        commit_table: IMADGCommitTable,
        ddl_table: DDLInformationTable,
        store: InMemoryColumnStore,
        ddl_applier: Optional[Callable[[DDLMarkerPayload], None]] = None,
        group_block_limit: int = 64,
    ) -> None:
        #: Every apply instance's mining state, this instance's first.
        self.journals = [journal]
        self.commit_tables = [commit_table]
        self.ddl_tables = [ddl_table]
        #: Every instance's IMCS: a DDL marker drops its units on each.
        self.stores = [store]
        #: Aborted transactions whose anchors other apply instances may
        #: still hold (they never see the abort), by abort SCN.
        self.aborted: dict[TransactionId, SCN] = {}
        #: Where invalidation groups go; a RAC standby swaps in a
        #: :class:`~repro.rac.cluster.RemoteInvalidationRouter`.
        self.router = LocalInvalidationRouter(store)
        #: Applies schema changes on the standby (drop column, drop table,
        #: create table) when a DDL marker is processed.
        self.ddl_applier = ddl_applier
        #: Maximum blocks per invalidation group (RAC message sizing).
        self.group_block_limit = group_block_limit
        self.worklink: Optional[Worklink] = None
        #: Every apply instance's flush-helping workers, woken by a worklink.
        self.waiters: list = []
        # statistics
        self._obs = obs.current()
        self.nodes_flushed = 0
        self.nodes_flushed_by_workers = 0
        self.groups_created = 0
        self.coarse_flushes = 0
        self.ddl_processed = 0
        #: Flush calls skipped by an installed chaos fault.
        self.chaos_stalls = 0
        obs.bind(self, {
            "nodes_flushed": "dbim.flush.nodes_flushed",
            "nodes_flushed_by_workers": "dbim.flush.nodes_flushed_by_workers",
            "groups_created": "dbim.flush.groups_created",
            "coarse_flushes": "dbim.flush.coarse_flushes",
            "ddl_processed": "dbim.flush.ddl_processed",
            "chaos_stalls": "dbim.flush.chaos_stalls",
        })
        self._chaos = sites.declare("flush.worklink", owner=self)
        #: Observers of flushed invalidations (the CDC egress, the
        #: checkpoint store).  Each listener is called *during* the flush
        #: -- i.e. strictly before the new QuerySCN is published.
        self.invalidation_listeners: list["InvalidationListener"] = []

    def add_invalidation_listener(
        self, listener: "InvalidationListener"
    ) -> None:
        self.invalidation_listeners.append(listener)

    def _notify_group(self, group: InvalidationGroup) -> None:
        for listener in self.invalidation_listeners:
            listener.on_group_flushed(group)

    def _notify_coarse(self, tenant: TenantId, scn: SCN) -> None:
        for listener in self.invalidation_listeners:
            listener.on_coarse_invalidation(tenant, scn)

    def _notify_ddl(self, object_id: ObjectId, scn: SCN) -> None:
        for listener in self.invalidation_listeners:
            listener.on_object_dropped(object_id, scn)

    # ------------------------------------------------------------------
    # AdvanceProtocol
    # ------------------------------------------------------------------
    def begin_advance(self, target_scn: SCN) -> None:
        nodes = sorted(
            (
                node
                for table in self.commit_tables
                for node in table.chop(target_scn)
            ),
            key=lambda node: node.commit_scn,
        )
        self.worklink = Worklink(target_scn, deque(nodes))
        wake(self.waiters)
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            for node in nodes:
                tracer.record_chopped(node.commit_scn)
        self._process_ddl(target_scn)
        # the target is every apply instance's consistency point, so none
        # can still mine (and recreate) an anchor aborted at or below it
        for xid, abort_scn in list(self.aborted.items()):
            if abort_scn <= target_scn:
                self._retire(xid)
                del self.aborted[xid]

    def note_abort(self, xid: TransactionId, scn: SCN) -> None:
        """Installed as every MIRA miner's ``on_abort`` hook."""
        self.aborted[xid] = scn

    def coordinator_flush(self, batch: int) -> int:
        return self._flush_nodes(batch, by_worker=False)

    def is_advance_complete(self) -> bool:
        return (
            (self.worklink is None or self.worklink.remaining == 0)
            and self.router.drained()
        )

    def finish_advance(self, target_scn: SCN) -> None:
        self.worklink = None

    # ------------------------------------------------------------------
    # the recovery workers' flush helper
    # ------------------------------------------------------------------
    def worker_flush(self, worker_id: WorkerId, batch: int) -> int:
        """Installed as the recovery workers' flush helper.

        Returns nodes flushed, or -1 when a worklink exists but draining
        is blocked -- the caller is genuinely *waiting* on the flush, not
        doing flush work, and accounts the time separately (the
        ``adg.apply.coop_flush_wait`` histogram).
        """
        flushed = self._flush_nodes(batch, by_worker=True)
        if flushed > 0:
            self.nodes_flushed_by_workers += flushed
        return flushed

    # ------------------------------------------------------------------
    def _flush_nodes(self, batch: int, by_worker: bool) -> int:
        """Drain up to ``batch`` worklink nodes.

        Returns the number flushed; 0 when there is nothing to drain; -1
        when the worklink has nodes but draining is blocked (an injected
        stall), so callers can distinguish idle from *blocked* time.
        """
        worklink = self.worklink
        if worklink is None or not worklink.nodes:
            return 0
        chaos = self._chaos
        if chaos.injectors is not None:
            decision = chaos.consult(
                "flush", by_worker=by_worker, remaining=worklink.remaining
            )
            if decision.action is sites.Action.STALL:
                # worklink draining held back; the caller retries later
                self.chaos_stalls += 1
                return -1
        # One call is one scheduler step -- nothing can observe the SMUs
        # between two of its nodes -- so the nodes' records are gathered
        # and their invalidations routed together.  A node leaves the
        # worklink as its listeners are about to hear of it, so one that
        # raises leaves the nodes after it queued.
        nodes = list(islice(worklink.nodes, batch))
        for node, ops in zip(nodes, self._route(nodes)):
            worklink.nodes.popleft()
            self._finish(node, ops)
        self.nodes_flushed += len(nodes)
        return len(nodes)

    def _route(
        self, nodes: Sequence[CommitTableNode]
    ) -> list[list[InvalidationGroup | CoarseInvalidation]]:
        """Gather every node's invalidations and route them all, in node
        order; returns them per node."""
        per_node = routing_ops(nodes, self._chunks_of, self.group_block_limit)
        self.router.route([op for of_node in per_node for op in of_node])
        return per_node

    def _chunks_of(self, node: CommitTableNode) -> list[RecordChunk]:
        """The transaction's mined records: its node's anchor, and under
        MIRA whatever the other apply instances' journals hold for it (an
        instance mines the data CVs it applies, i.e. those it owns)."""
        chunks = [] if node.anchor is None else node.anchor.chunks()
        if len(self.journals) > 1:
            for journal in self.journals:
                anchor = journal.get(node.xid)
                if anchor is not None and anchor is not node.anchor:
                    chunks.extend(anchor.chunks())
        return chunks

    def _finish(
        self,
        node: CommitTableNode,
        ops: Sequence[InvalidationGroup | CoarseInvalidation],
    ) -> None:
        """Account for one routed node, tell the listeners, and retire
        its anchor."""
        if node.coarse:
            self.coarse_flushes += 1
            self._notify_coarse(node.tenant, node.commit_scn)
        else:
            self.groups_created += len(ops)
            for group in ops:
                self._notify_group(group)
        self._retire(node.xid)
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            tracer.record_flushed(node.commit_scn)

    def _retire(self, xid: TransactionId) -> None:
        """Release the transaction's anchor from every journal."""
        for journal in self.journals:
            journal.remove(xid)

    # ------------------------------------------------------------------
    def _process_ddl(self, target_scn: SCN) -> None:
        entries = sorted(
            (
                entry
                for table in self.ddl_tables
                for entry in table.take_through(target_scn)
            ),
            key=lambda entry: entry.scn,
        )
        for entry in entries:
            for object_id in entry.payload.object_ids:
                for store in self.stores:
                    store.drop_units(object_id)
                    if entry.payload.kind in (
                        "drop_table", "alter_no_inmemory",
                    ):
                        store.disable(object_id)
                self._notify_ddl(object_id, entry.scn)
            if self.ddl_applier is not None:
                self.ddl_applier(entry.payload)
            self.ddl_processed += 1

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Instance restart: all volatile state is lost."""
        self.worklink = None
