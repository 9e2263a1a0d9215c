"""Multi-Instance Redo Apply (MIRA) with DBIM-on-ADG.

The paper closes with this as its key future work: "With Multi Instance
Redo Apply (MIRA), ADG can scale-out redo apply to multiple instances with
Oracle RAC, providing faster log advancement on the Standby Database.
Enhancing the DBIM-on-ADG infrastructure to support MIRA is very important
in order to avail the performance benefits for reporting queries on the
Standby Database without compromising on the goals of MIRA."

This module implements that extension:

* every apply instance receives the full redo stream (multicast shipping)
  and runs its own merger + worker pool, but applies only the change
  vectors *owned* by it (deterministic hash over (object, block range) --
  the same map that homes IMCUs, so invalidations are mostly local);
* transaction control CVs target per-primary-instance transaction-table
  blocks, so each transaction's begin/commit/abort land on exactly one
  apply instance -- that instance's Mining Component owns the
  transaction's commit-table node, while its invalidation records
  accumulate in the journals of whichever instances applied its data CVs;
* a **global MIRA coordinator** computes the cluster consistency point as
  the minimum of the per-instance points, and at advancement gathers each
  committed transaction's invalidation records *across all journals*,
  routes the groups (local or over the interconnect), garbage-collects
  aborted transactions' scattered anchors, processes DDL from every
  instance's DDL table, and only then publishes the global QuerySCN under
  every instance's quiesce lock.

Simplifications versus a real RAC (documented per DESIGN.md §2): apply
instances share the mounted database (catalog, block store, transaction
table) through memory rather than cache fusion, and the coordinator reads
remote apply progress directly; invalidation-group shipping and
acknowledgements do ride the simulated interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.adg.apply import ApplyDistributor, RecoveryWorker
from repro.adg.merger import LogMerger
from repro.adg.queryscn import QuerySCNPublisher
from repro.common.config import SystemConfig
from repro.common.ids import DBA, InstanceId, ObjectId, TransactionId
from repro.common.latch import QuiesceLock
from repro.common.scn import SCN
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.flush import routing_ops
from repro.dbim_adg.journal import IMADGJournal, RecordChunk
from repro.dbim_adg.mining import MiningComponent
from repro.imcs.population import PopulationEngine, PopulationWorker
from repro.imcs.scan import Predicate, ScanEngine, ScanResult
from repro.imcs.store import InMemoryColumnStore
from repro.rac.cluster import MergedStoreView, RemoteInvalidationRouter
from repro.rac.home_location import HomeLocationMap
from repro.rac.messaging import Interconnect
from repro.redo.batch import CVBatch
from repro.redo.shipping import LogShipper, RedoReceiver
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler
from repro.db.applier import PhysicalApplier
from repro.db.catalog import Catalog
from repro.db.primary import PrimaryDatabase
from repro.rowstore.buffer_cache import BufferCache
from repro.rowstore.segment import BlockStore
from repro.txn.table import TransactionTable


class _FilteredDistributor(ApplyDistributor):
    """Routes only the CVs owned by one apply instance.

    ``distributed_through`` still advances over *every* record, because an
    instance is caught up through SCN s once it has applied all CVs it
    owns below s -- unowned CVs are someone else's responsibility.  The
    shared dictionary is installed before the filter, so an instance that
    owns none of a create-table marker still learns the table.
    """

    def __init__(
        self,
        n_workers: int,
        applier: PhysicalApplier,
        owns: Callable[[ObjectId, DBA], bool],
    ) -> None:
        super().__init__(n_workers, applier)
        self._owns = owns
        self.cvs_skipped = 0
        obs.bind(self, {"cvs_skipped": "rac.mira.cvs_skipped"})

    def _distribute_batch(self, batch: CVBatch) -> int:
        owned = np.fromiter(
            map(self._owns, batch.object_ids.tolist(), batch.dbas.tolist()),
            dtype=bool,
            count=batch.n_cvs,
        )
        positions = np.nonzero(owned)[0]
        skipped = batch.n_cvs - positions.size
        if skipped:
            self.cvs_skipped += skipped
        return self._enqueue(batch, positions)


class MIRAApplyInstance:
    """One MIRA apply instance: merger, owned-CV workers, local mining."""

    def __init__(
        self,
        instance_id: InstanceId,
        cluster: "MIRAStandbyCluster",
        config: SystemConfig,
    ) -> None:
        self.instance_id = instance_id
        self.cluster = cluster
        self.config = config
        self.node = CpuNode(f"mira-standby-{instance_id}", n_cpus=16)
        self.receiver = RedoReceiver()
        self.merger = LogMerger(self.receiver, node=self.node)
        apply_cfg = config.apply
        self.distributor = _FilteredDistributor(
            apply_cfg.n_workers,
            cluster.applier,
            owns=lambda object_id, dba: cluster.owner_of(object_id, dba)
            == instance_id,
        )
        # per-instance DBIM-on-ADG mining state
        self.journal = IMADGJournal(
            max(config.journal.n_buckets, 4 * apply_cfg.n_workers)
        )
        self.commit_table = IMADGCommitTable(
            config.journal.commit_table_partitions
        )
        self.ddl_table = DDLInformationTable()
        self.imcs = InMemoryColumnStore(config.imcs.pool_size_bytes)
        self.miner = MiningComponent(
            self.journal, self.commit_table, self.ddl_table, self.imcs
        )
        self.workers = [
            RecoveryWorker(
                i,
                self.distributor,
                applier=cluster.applier,
                batch_sniffer=self.miner.sniff_chunk,
                batch=apply_cfg.worker_batch,
                node=self.node,
                cost_per_cv=apply_cfg.apply_cost_per_cv,
            )
            for i in range(apply_cfg.n_workers)
        ]
        self.quiesce_lock = QuiesceLock()
        self.query_scn = QuerySCNPublisher()
        self.population = PopulationEngine(
            self.imcs,
            cluster.txn_table,
            snapshot_capture=self._capture_snapshot,
            config=config.imcs,
            dba_filter=lambda object_id, dba: cluster.owner_of(
                object_id, dba
            )
            == instance_id,
        )

    # ------------------------------------------------------------------
    def _capture_snapshot(self, owner: object) -> Optional[SCN]:
        if self.query_scn.value == 0:
            return None
        if not self.quiesce_lock.try_acquire_shared(owner):
            return None
        try:
            return self.query_scn.value
        finally:
            self.quiesce_lock.release_shared(owner)

    def consistency_point(self) -> SCN:
        point = self.merger.merged_through_scn
        if self.merger.pending_merged:
            point = min(point, self.merger.merged[0].scn - 1)
        for worker in self.workers:
            point = min(point, worker.applied_through())
        return point

    def attach_actors(self, sched: Scheduler) -> None:
        sched.add_actor(self.merger)
        sched.add_actor(_InstancePump(self))
        for worker in self.workers:
            sched.add_actor(worker)
        for i in range(self.config.imcs.population_workers):
            sched.add_actor(
                PopulationWorker(
                    self.population,
                    name=f"mira{self.instance_id}-popworker-{i}",
                    node=self.node,
                    sweep=(i == 0),
                )
            )


class _InstancePump(Actor):
    """Moves merged batches into an instance's (filtering) distributor."""

    def __init__(self, instance: MIRAApplyInstance, batch: int = 512) -> None:
        self.instance = instance
        self.batch = batch
        self.name = f"mira-pump-{instance.instance_id}"
        self.node = instance.node

    def step(self, sched: Scheduler) -> Optional[float]:
        batches = self.instance.merger.take_merged(self.batch)
        if not batches:
            return None
        routed = self.instance.distributor.distribute(batches)
        return 1e-6 + 1e-7 * routed


@dataclass(slots=True)
class _Advancement:
    target: SCN
    worklink: list[CommitTableNode]
    position: int = 0


class MIRACoordinator(Actor):
    """The global coordinator: cluster consistency point + flush + publish."""

    def __init__(
        self,
        cluster: "MIRAStandbyCluster",
        interval: float = 0.01,
        flush_batch: int = 32,
    ) -> None:
        self.cluster = cluster
        self.interval = interval
        self.flush_batch = flush_batch
        self.name = "mira-coordinator"
        self.node = cluster.instances[0].node
        self._advancing: Optional[_Advancement] = None
        self._last_check = -1.0
        self._obs = obs.current()
        self.advancements = 0
        self.nodes_flushed = 0
        self.cross_instance_gathers = 0
        obs.bind(self, {
            "advancements": "rac.mira.advancements",
            "nodes_flushed": "rac.mira.nodes_flushed",
            "cross_instance_gathers": "rac.mira.cross_instance_gathers",
        })

    # ------------------------------------------------------------------
    def step(self, sched: Scheduler) -> Optional[float]:
        cluster = self.cluster
        cost = 0.0
        if self._advancing is None:
            if sched.now - self._last_check < self.interval:
                return None
            self._last_check = sched.now
            self._gc_aborted()
            candidate = min(
                instance.consistency_point()
                for instance in cluster.instances
            )
            if candidate <= cluster.query_scn.value:
                return 2e-6
            worklink: list[CommitTableNode] = []
            for instance in cluster.instances:
                worklink.extend(instance.commit_table.chop(candidate))
            worklink.sort(key=lambda n: n.commit_scn)
            self._advancing = _Advancement(candidate, worklink)
            tracer = obs.tracer_of(self._obs)
            if tracer is not None:
                for node in worklink:
                    tracer.record_chopped(node.commit_scn)
            # DDL processing is pre-publication, exactly like the
            # single-instance AdvanceProtocol's begin_advance
            self._process_ddl(candidate)
            cost += 5e-6
        advancement = self._advancing
        # drain a batch of worklink nodes
        nodes = advancement.worklink[
            advancement.position : advancement.position + self.flush_batch
        ]
        self._flush_nodes(nodes)
        flushed = len(nodes)
        advancement.position += flushed
        self.nodes_flushed += flushed
        cost += 1e-6 * max(flushed, 1)
        if advancement.position < len(advancement.worklink):
            return cost
        if not self.cluster.router.drained():
            return cost
        # all flushed + acked: quiesce every instance, publish globally
        acquired = []
        for instance in cluster.instances:
            if instance.quiesce_lock.try_acquire_exclusive(self):
                acquired.append(instance)
            else:
                for got in acquired:
                    got.quiesce_lock.release_exclusive(self)
                return cost + 2e-6  # a capture is in flight; retry
        try:
            cluster.query_scn.publish(advancement.target, at_time=sched.now)
            for instance in cluster.instances:
                instance.query_scn.publish(
                    advancement.target, at_time=sched.now
                )
        finally:
            for instance in acquired:
                instance.quiesce_lock.release_exclusive(self)
        self.advancements += 1
        self._advancing = None
        return cost + 2e-6

    # ------------------------------------------------------------------
    def _flush_nodes(self, nodes: list[CommitTableNode]) -> None:
        """Gather and route one step's nodes together (the step is
        atomic, as a flush component's drain call is), then retire their
        anchors everywhere."""
        cluster = self.cluster
        cluster.router.route([
            op
            for of_node in routing_ops(nodes, self._chunks_of)
            for op in of_node
        ])
        tracer = obs.tracer_of(self._obs)
        for node in nodes:
            for instance in cluster.instances:
                # bounded retry + latch recovery: a holder observed here
                # can only be a crashed worker (see
                # IMADGJournal.remove_with_recovery)
                instance.journal.remove_with_recovery(node.xid, self)
            if tracer is not None:
                tracer.record_flushed(node.commit_scn)

    def _chunks_of(self, node: CommitTableNode) -> list[RecordChunk]:
        """Collect the transaction's records from *every* instance's
        journal -- the MIRA-specific twist: data CVs were mined wherever
        they were applied."""
        chunks: list[RecordChunk] = []
        gathered_remote = False
        for instance in self.cluster.instances:
            anchor = instance.journal.get_with_recovery(node.xid, self)
            if anchor is None:
                continue
            mined = anchor.chunks()
            if mined and instance.instance_id != node.xid.instance:
                gathered_remote = True
            chunks.extend(mined)
        if gathered_remote:
            self.cross_instance_gathers += 1
        return chunks

    def _process_ddl(self, target: SCN) -> None:
        cluster = self.cluster
        for instance in cluster.instances:
            for entry in instance.ddl_table.take_through(target):
                for object_id in entry.payload.object_ids:
                    for other in cluster.instances:
                        other.imcs.drop_units(object_id)
                        if entry.payload.kind in (
                            "drop_table", "alter_no_inmemory",
                        ):
                            other.imcs.disable(object_id)
                cluster.applier.apply_ddl(entry.payload)

    def _gc_aborted(self) -> None:
        """Aborted transactions' data-only anchors linger on instances
        that never see the abort control CV; collect them here.

        An entry is collectable only once every instance has applied (and
        therefore mined) past the abort SCN -- before that, a slow
        instance could recreate the anchor from a late data CV."""
        cluster = self.cluster
        if not cluster.aborted_xids:
            return
        point = min(
            instance.consistency_point() for instance in cluster.instances
        )
        for xid, abort_scn in list(cluster.aborted_xids.items()):
            if abort_scn > point:
                continue
            for instance in cluster.instances:
                instance.journal.remove_with_recovery(xid, self)
            del cluster.aborted_xids[xid]


class MIRAStandbyCluster:
    """A standby whose redo apply scales out across N instances."""

    def __init__(
        self,
        primary: PrimaryDatabase,
        sched: Scheduler,
        n_instances: int = 2,
        config: Optional[SystemConfig] = None,
    ) -> None:
        if n_instances < 1:
            raise ValueError("MIRA needs at least one apply instance")
        self.config = config or primary.config
        self.sched = sched
        registry = obs.current()
        if registry is not None and registry.tracer is None:
            # MIRA clusters are often built standalone (no Deployment):
            # arm the lifecycle tracer here, like Deployment.build does
            registry.tracer = obs.RedoLifecycleTracer(sched, registry)
        # shared mounted database
        self.block_store = BlockStore()
        self.buffer_cache = BufferCache(capacity_blocks=None)
        self.catalog = Catalog(self.block_store, self.buffer_cache)
        self.txn_table = TransactionTable()
        self.applier = PhysicalApplier(self.catalog, self.txn_table)
        self.query_scn = QuerySCNPublisher()
        instance_ids = list(range(1, n_instances + 1))
        self.ownership = HomeLocationMap(
            instance_ids,
            range_blocks=max(
                1,
                self.config.imcs.imcu_target_rows
                // self.config.rowstore.rows_per_block,
            ),
        )
        #: Cluster-visible aborted transactions pending journal GC,
        #: mapped to their abort SCN: an instance may still be about to
        #: mine the transaction's data CVs (recreating its anchor), so GC
        #: must wait until the cluster consistency point passes the abort.
        self.aborted_xids: dict[TransactionId, SCN] = {}
        self.instances = [
            MIRAApplyInstance(i, self, self.config) for i in instance_ids
        ]
        # hook abort mining into the shared GC map
        for instance in self.instances:
            instance.miner.on_abort = self._note_abort
        self.interconnect = Interconnect(
            sched, latency=self.config.rac.interconnect_latency
        )
        self.router = RemoteInvalidationRouter(
            self.instances[0].imcs,
            master_instance_id=1,
            home_map=self.ownership,
            interconnect=self.interconnect,
            batch_size=self.config.rac.invalidation_batch_size,
        )
        self.interconnect.register(1, self._master_receive)
        for instance in self.instances[1:]:
            self.interconnect.register(
                instance.instance_id,
                self._make_instance_receiver(instance),
            )
        self.coordinator = MIRACoordinator(
            self, interval=self.config.apply.coordinator_interval
        )
        # multicast shipping: one shipper per (primary thread, instance)
        for instance in self.instances:
            for log in primary.redo_logs:
                sched.add_actor(
                    LogShipper(
                        log,
                        {f"mira{instance.instance_id}": instance.receiver},
                        latency=self.config.ship_latency,
                        node=primary.instances[log.thread - 1].node,
                        name=f"shipper-t{log.thread}-to-mira{instance.instance_id}",
                    )
                )
        for instance in self.instances:
            instance.attach_actors(sched)
        sched.add_actor(self.coordinator)

    # ------------------------------------------------------------------
    def _note_abort(self, xid: TransactionId, scn: SCN) -> None:
        self.aborted_xids[xid] = scn

    def owner_of(self, object_id: ObjectId, dba: DBA) -> InstanceId:
        return self.ownership.instance_for(object_id, dba)

    def _master_receive(self, from_instance, payload) -> None:
        from repro.rac.cluster import _Ack

        if isinstance(payload, _Ack):
            self.router.on_ack(from_instance, payload)
        else:
            raise TypeError(f"unexpected payload at MIRA master: {payload!r}")

    def _make_instance_receiver(self, instance: MIRAApplyInstance):
        from repro.rac.cluster import _Ack, _InvalidationBatch

        def receive(from_instance, payload):
            if isinstance(payload, _InvalidationBatch):
                instance.imcs.invalidate_groups(payload.groups)
                for tenant, scn in payload.coarse_tenants:
                    instance.imcs.invalidate_tenant(tenant, scn)
                self.interconnect.send(
                    instance.instance_id, 1, _Ack(payload.sequence)
                )
            else:
                raise TypeError(f"unexpected payload: {payload!r}")

        return receive

    # ------------------------------------------------------------------
    # management + queries
    # ------------------------------------------------------------------
    def enable_inmemory(
        self, table_name: str, partition: Optional[str] = None,
        columns: Optional[list[str]] = None,
    ) -> list[ObjectId]:
        table = self.catalog.table(table_name)
        object_ids = []
        names = [partition] if partition else list(table.partitions)
        for instance in self.instances:
            instance.imcs.enable(table, partition, columns)
            instance.population.schedule_all()
        object_ids = [table.partition(n).object_id for n in names]
        return object_ids

    @property
    def stores(self) -> list[InMemoryColumnStore]:
        return [instance.imcs for instance in self.instances]

    def query(
        self,
        table_name: str,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
    ) -> ScanResult:
        table = self.catalog.table(table_name)
        engine = ScanEngine(MergedStoreView(self.stores), self.txn_table)
        return engine.scan(
            table, self.query_scn.value, predicates, columns, partitions
        )

    def populated_rows(self) -> dict[InstanceId, int]:
        return {
            instance.instance_id: instance.imcs.populated_rows
            for instance in self.instances
        }

    def fully_populated(self) -> bool:
        return all(
            instance.population.fully_populated()
            for instance in self.instances
        )

    def cvs_applied_per_instance(self) -> dict[InstanceId, int]:
        return {
            instance.instance_id: sum(
                worker.cvs_applied for worker in instance.workers
            )
            for instance in self.instances
        }
