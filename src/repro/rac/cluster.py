"""A RAC standby: peer instances, remote invalidation flush, scale-out.

"Redo apply on the Standby database is typically limited to a single
master instance, known as Single Instance Redo Apply or SIRA.  A non-master
instance does not perform Redo apply, but hosts a local recovery
coordinator process which receives the QuerySCN from the master recovery
coordinator and exposes it to queries served by that instance.  Hence, the
IM-ADG Journal and IM-ADG Commit Table are created only on the master
instance.  During QuerySCN advancement, DBIM-on-ADG Invalidation Flush
Component queries the home-location map and transmits the 'invalidation
groups' to the desired instance.  The local recovery coordinator on the
receiving instance flushes the invalidation groups to SMUs on that
instance and acknowledges the same to the master" (paper, III-F).

The paper closes with MIRA as its key future work: "With Multi Instance
Redo Apply (MIRA), ADG can scale-out redo apply to multiple instances with
Oracle RAC, providing faster log advancement on the Standby Database"
(V).  Under MIRA every instance receives the redo stream and applies the
change vectors it *owns* -- the home-location map again, so an instance
mines into its own journal exactly the changes to blocks it homes -- while
the master's one recovery coordinator and flush component advance the
QuerySCN over all of them (see :mod:`repro.dbim_adg.flush`).

Simplifications versus a real RAC (DESIGN.md §2): instances share the
mounted database (catalog, block store, recovered transaction table)
through memory rather than cache fusion, and the master reads remote apply
progress and mining state directly; invalidation groups, their
acknowledgements and QuerySCN publications ride the simulated
interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from repro import obs
from repro.adg.apply import ApplyDistributor
from repro.adg.merger import LogMerger
from repro.adg.queryscn import QuerySCNPublisher
from repro.common.ids import InstanceId, ObjectId, TenantId
from repro.common.scn import SCN
from repro.dbim_adg.flush import CoarseInvalidation, InvalidationGroup
from repro.imcs.imcu import ROW_KEY_SHIFT
from repro.imcs.population import PopulationEngine
from repro.imcs.store import InMemoryColumnStore, InMemorySegment
from repro.rac.home_location import HomeLocationMap
from repro.rac.messaging import Interconnect
from repro.redo.shipping import RedoReceiver
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler
from repro.db.standby import StandbyDatabase, StandbyInstance


# ----------------------------------------------------------------------
# interconnect payloads
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _InvalidationBatch:
    sequence: int
    groups: list[InvalidationGroup] = field(default_factory=list)
    coarse_tenants: list[tuple[TenantId, SCN]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.groups) + len(self.coarse_tenants)


@dataclass(frozen=True, slots=True)
class _Ack:
    sequence: int


@dataclass(frozen=True, slots=True)
class _QuerySCNPublish:
    scn: SCN


# ----------------------------------------------------------------------
class PeerInstance(StandbyInstance):
    """Instance ``instance_id`` >= 2 of a RAC standby.

    It mounts the master's database (block store, dictionary, recovered
    transaction table) and owns an IMCS populated with the blocks the
    home-location map gives it, under a local QuerySCN that its local
    coordinator publishes as the master's publications arrive.  With
    ``apply`` (MIRA) it also applies the change vectors it owns: its own
    receiver, merger, ownership-filtered distributor and recovery workers,
    mining into its own journal, commit table and DDL table.
    """

    def __init__(
        self,
        instance_id: InstanceId,
        master: StandbyDatabase,
        home_map: HomeLocationMap,
        interconnect: Interconnect,
        apply: bool,
    ) -> None:
        self.instance_id = instance_id
        self.config = config = master.config
        self.interconnect = interconnect
        self.node = CpuNode(f"{master.node.name}.{instance_id}", n_cpus=16)
        self.imcs = InMemoryColumnStore()
        self.query_scn = QuerySCNPublisher()
        owns = partial(home_map.is_home, instance_id)
        self.population = PopulationEngine(
            self.imcs,
            master.txn_table,
            snapshot_capture=self._capture_snapshot,
            config=config.imcs,
            dba_filter=owns,
        )
        self.groups_received = 0
        obs.bind(
            self, {"groups_received": "rac.peer.groups_received"},
            instance=instance_id,
        )
        #: Batch sequences already accepted -- duplicated interconnect
        #: messages are re-acked but never re-staged.
        self._applied_sequences: set[int] = set()
        #: Batches received but not yet flushed to SMUs.  Applying is
        #: deferred to the next local QuerySCN publish (the same step) so
        #: a population capture can never interleave between an
        #: invalidation and the publish that makes it necessary --
        #: otherwise a block populated at the stale local QuerySCN would
        #: silently miss the already-consumed invalidation.
        self._staged: list[_InvalidationBatch] = []
        interconnect.register(instance_id, self._receive)
        self.workers = []
        if apply:
            self.receiver = RedoReceiver(fal_fetch=master.receiver.fal_fetch)
            self.merger = LogMerger(
                self.receiver, node=self.node,
                name=f"{self.node.name}-log-merger",
            )
            self.distributor = ApplyDistributor(
                config.apply.n_workers, master.applier, owns=owns
            )
            self._init_mining()
            self.workers = self._recovery_workers(
                self.distributor, master.applier, master.flush
            )

    def actors(self) -> list[Actor]:
        pipeline = [self.merger, *self.workers] if self.workers else []
        return [
            *pipeline, *self.population.workers(self.node.name, self.node)
        ]

    # -- local recovery coordinator ---------------------------------------
    def _receive(self, from_instance: InstanceId, payload: object) -> None:
        if isinstance(payload, _InvalidationBatch):
            if payload.sequence not in self._applied_sequences:
                self._applied_sequences.add(payload.sequence)
                self._staged.append(payload)
            self.interconnect.send(
                self.instance_id, from_instance, _Ack(payload.sequence)
            )
        elif isinstance(payload, _QuerySCNPublish):
            # the local coordinator exposes the master's QuerySCN here
            self._apply_staged()
            self.query_scn.publish(
                payload.scn, at_time=self.interconnect.sched.now
            )
        else:
            raise TypeError(f"unexpected payload {payload!r}")

    def _apply_staged(self) -> None:
        """Flush staged invalidation groups to this instance's SMUs."""
        for batch in self._staged:
            self.imcs.invalidate_groups(batch.groups)
            self.groups_received += len(batch.groups)
            for tenant, scn in batch.coarse_tenants:
                self.imcs.invalidate_tenant(tenant, scn)
        self._staged.clear()


# ----------------------------------------------------------------------
class RemoteInvalidationRouter:
    """Master-side router: local groups apply directly, remote groups ride
    the interconnect in batched, pipelined messages; ``drained`` gates the
    master's QuerySCN publication on the peers' acknowledgements."""

    def __init__(
        self,
        master_store: InMemoryColumnStore,
        master_instance_id: InstanceId,
        home_map: HomeLocationMap,
        interconnect: Interconnect,
        batch_size: int = 32,
    ) -> None:
        self.master_store = master_store
        self.master_instance_id = master_instance_id
        self.home_map = home_map
        self.interconnect = interconnect
        self.batch_size = batch_size
        self._pending: dict[InstanceId, _InvalidationBatch] = {}
        #: Sequences sent but not yet acknowledged.  A set keyed by batch
        #: sequence keeps duplicated messages/acks idempotent.
        self._outstanding_acks: set[int] = set()
        self._sequence = 0
        self.groups_routed_local = 0
        self.groups_routed_remote = 0
        obs.bind(self, {
            "groups_routed_local": "rac.router.groups_routed_local",
            "groups_routed_remote": "rac.router.groups_routed_remote",
        })

    # -- router interface (used by InvalidationFlushComponent) -----------
    def route(
        self, ops: Sequence[InvalidationGroup | CoarseInvalidation]
    ) -> None:
        """Route one drain call's invalidations in order: a group's
        blocks go to their home instances -- the master's shares all in
        one store call at the end, the others as sub-groups on the
        interconnect -- and a coarse one goes everywhere."""
        local: list[InvalidationGroup] = []
        for op in ops:
            if isinstance(op, CoarseInvalidation):
                self._route_coarse(op.tenant, op.commit_scn)
                continue
            for instance, sub in self._split_by_home(op).items():
                if instance == self.master_instance_id:
                    local.append(sub)
                    self.groups_routed_local += 1
                else:
                    self._buffer(instance).groups.append(sub)
                    self.groups_routed_remote += 1
                    self._maybe_flush_buffer(instance)
        self.master_store.invalidate_groups(local)

    def _split_by_home(
        self, group: InvalidationGroup
    ) -> dict[InstanceId, InvalidationGroup]:
        """The group cut by its blocks' home instances, each share in the
        group's order."""
        split = self.home_map.split_by_home(
            group.object_id,
            sorted({
                *(key >> ROW_KEY_SHIFT for key in group.keys),
                *group.whole_blocks,
            }),
        )
        home = {
            dba: instance for instance, dbas in split.items() for dba in dbas
        }
        subs = {
            instance: InvalidationGroup(
                group.object_id, group.tenant, group.commit_scn, [], []
            )
            for instance in split
        }
        for key in group.keys:
            subs[home[key >> ROW_KEY_SHIFT]].keys.append(key)
        for dba in group.whole_blocks:
            subs[home[dba]].whole_blocks.append(dba)
        return subs

    def _route_coarse(self, tenant: TenantId, scn: SCN) -> None:
        self.master_store.invalidate_tenant(tenant, scn)
        for instance in self.home_map.instances:
            if instance == self.master_instance_id:
                continue
            self._buffer(instance).coarse_tenants.append((tenant, scn))
            self._maybe_flush_buffer(instance)

    def drained(self) -> bool:
        self.flush_buffers()
        return not self._outstanding_acks

    # -- batching / pipelining -----------------------------------------
    def _buffer(self, instance: InstanceId) -> _InvalidationBatch:
        batch = self._pending.get(instance)
        if batch is None:
            self._sequence += 1
            batch = _InvalidationBatch(self._sequence)
            self._pending[instance] = batch
        return batch

    def _maybe_flush_buffer(self, instance: InstanceId) -> None:
        batch = self._pending.get(instance)
        if batch is not None and batch.size >= self.batch_size:
            self._send(instance, batch)

    def flush_buffers(self) -> None:
        for instance in list(self._pending):
            self._send(instance, self._pending[instance])

    def _send(self, instance: InstanceId, batch: _InvalidationBatch) -> None:
        del self._pending[instance]
        self._outstanding_acks.add(batch.sequence)
        self.interconnect.send(
            self.master_instance_id, instance, batch, size_hint=batch.size
        )

    def on_ack(self, from_instance: InstanceId, ack: _Ack) -> None:
        """The master's interconnect handler: a peer staged a batch."""
        self._outstanding_acks.discard(ack.sequence)


# ----------------------------------------------------------------------
class MergedStoreView:
    """Read-only union of several instances' IMCS stores.

    Presents the minimal interface the scan engine needs (``is_enabled`` /
    ``segment``), merging the live units of every instance -- the
    moral equivalent of a parallel query fanning out across the cluster's
    in-memory column stores.
    """

    def __init__(self, stores: list[InMemoryColumnStore]) -> None:
        self.stores = stores

    def is_enabled(self, object_id: ObjectId) -> bool:
        return any(s.is_enabled(object_id) for s in self.stores)

    def segment(self, object_id: ObjectId) -> InMemorySegment:
        merged: Optional[InMemorySegment] = None
        for store in self.stores:
            if not store.is_enabled(object_id):
                continue
            segment = store.segment(object_id)
            if merged is None:
                # the first enabled instance's (the master's) expressions:
                # a peer unit without one of their columns falls back to
                # the row store, which computes it
                merged = InMemorySegment(
                    table=segment.table,
                    partition=segment.partition,
                    inmemory_columns=segment.inmemory_columns,
                    expressions=segment.expressions,
                )
            merged.units.extend(segment.live_units())
        if merged is None:
            raise KeyError(f"object {object_id} not enabled anywhere")
        return merged


# ----------------------------------------------------------------------
def scale_out(
    master: StandbyDatabase, sched: Scheduler, n_instances: int, mira: bool
) -> list[PeerInstance]:
    """Make ``master`` instance 1 of an ``n_instances`` RAC standby and
    return the peers, their actors attached through the master.

    The home-location map homes IMCUs by block range; the master's flush
    routes invalidation groups by it and publishes only once every peer
    has acknowledged, then sends the QuerySCN to the peers' local
    coordinators.  With ``mira`` the same map decides which instance
    applies each change vector, and the master's coordinator and flush
    span every instance's pipeline and mining state.
    """
    if n_instances < 1:
        raise ValueError("a RAC standby needs at least one instance")
    config = master.config
    home_map = HomeLocationMap(
        list(range(1, n_instances + 1)),
        range_blocks=max(
            1, config.imcs.imcu_target_rows // config.rowstore.rows_per_block
        ),
    )
    interconnect = Interconnect(sched, latency=config.rac.interconnect_latency)
    flush = master.flush
    flush.router = RemoteInvalidationRouter(
        master.imcs, master.instance_id, home_map, interconnect,
        batch_size=config.rac.invalidation_batch_size,
    )
    interconnect.register(master.instance_id, flush.router.on_ack)
    owns = partial(home_map.is_home, master.instance_id)
    master.population.dba_filter = owns
    peers = [
        PeerInstance(instance_id, master, home_map, interconnect, mira)
        for instance_id in range(2, n_instances + 1)
    ]
    flush.stores.extend(peer.imcs for peer in peers)
    if mira:
        master.distributor.owns = owns
        master.coordinator.peers.extend(peers)
        for peer in peers:
            peer.merger.waiters.append(master.coordinator)
        flush.journals.extend(peer.journal for peer in peers)
        flush.commit_tables.extend(peer.commit_table for peer in peers)
        flush.ddl_tables.extend(peer.ddl_table for peer in peers)
        for instance in (master, *peers):
            instance.miner.on_abort = flush.note_abort

    def publish_to_peers(scn: SCN) -> None:
        for peer in peers:
            interconnect.send(
                master.instance_id, peer.instance_id, _QuerySCNPublish(scn)
            )

    master.query_scn.subscribe(publish_to_peers)
    for peer in peers:
        for actor in peer.actors():
            master.attach_actor(sched, actor)
    return peers
