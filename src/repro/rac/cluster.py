"""Standby RAC: the SIRA master, satellites and remote invalidation flush.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.common.config import SystemConfig
from repro.common.ids import DBA, InstanceId, ObjectId, TenantId
from repro.common.latch import QuiesceLock
from repro.common.scn import SCN
from repro.adg.queryscn import QuerySCNPublisher
from repro.dbim_adg.flush import CoarseInvalidation, InvalidationGroup
from repro.imcs.population import PopulationEngine, PopulationWorker
from repro.imcs.scan import Predicate, ScanEngine, ScanResult
from repro.imcs.imcu import ROW_KEY_SHIFT
from repro.imcs.store import InMemoryColumnStore, InMemorySegment
from repro.rac.home_location import HomeLocationMap
from repro.rac.messaging import Interconnect
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Scheduler
from repro.db.standby import StandbyDatabase


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
class StandbySatellite:
    """A non-master standby instance: local IMCS + local coordinator.

    Shares the master's datafiles (block store), dictionary and recovered
    transaction table -- RAC instances mount the same database -- but owns
    its IMCS, population engine and locally-published QuerySCN.
    """

    def __init__(
        self,
        instance_id: InstanceId,
        master: StandbyDatabase,
        home_map: HomeLocationMap,
        interconnect: Interconnect,
        master_instance_id: InstanceId,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.instance_id = instance_id
        self.master = master
        self.home_map = home_map
        self.interconnect = interconnect
        self.master_instance_id = master_instance_id
        self.config = config or master.config
        self.node = CpuNode(f"standby-{instance_id}", n_cpus=16)
        self.imcs = InMemoryColumnStore(self.config.imcs.pool_size_bytes)
        self.query_scn = QuerySCNPublisher()
        self.quiesce_lock = QuiesceLock()
        self.population = PopulationEngine(
            self.imcs,
            master.txn_table,
            snapshot_capture=self._capture_snapshot,
            config=self.config.imcs,
            dba_filter=self._is_homed_here,
        )
        self.scan_engine = ScanEngine(self.imcs, master.txn_table)
        self.groups_received = 0
        obs.bind(
            self, {"groups_received": "rac.satellite.groups_received"},
            instance=instance_id,
        )
        #: Batch sequences already accepted -- duplicated interconnect
        #: messages are re-acked but never re-staged.
        self._applied_sequences: set[int] = set()
        #: Batches received but not yet flushed to SMUs.  Applying is
        #: deferred to the next local QuerySCN publish (under the same
        #: exclusive quiesce section) so a population capture can never
        #: interleave between an invalidation and the publish that makes
        #: it necessary -- otherwise a block populated at the stale local
        #: QuerySCN would silently miss the already-consumed invalidation.
        self._staged: list[_InvalidationBatch] = []
        interconnect.register(instance_id, self._receive)

    # -- population ------------------------------------------------------
    def _is_homed_here(self, object_id: ObjectId, dba: DBA) -> bool:
        return self.home_map.is_home(self.instance_id, object_id, dba)

    def _capture_snapshot(self, owner: object) -> Optional[SCN]:
        if self.query_scn.value == 0:
            return None
        if not self.quiesce_lock.try_acquire_shared(owner):
            return None
        try:
            return self.query_scn.value
        finally:
            self.quiesce_lock.release_shared(owner)

    # -- local recovery coordinator ---------------------------------------
    def _receive(self, from_instance: InstanceId, payload: object) -> None:
        if isinstance(payload, _InvalidationBatch):
            if payload.sequence not in self._applied_sequences:
                self._applied_sequences.add(payload.sequence)
                self._staged.append(payload)
            self.interconnect.send(
                self.instance_id,
                self.master_instance_id,
                _Ack(payload.sequence),
            )
        elif isinstance(payload, _QuerySCNPublish):
            # the local coordinator exposes the master's QuerySCN here
            if not self.quiesce_lock.try_acquire_exclusive(self):
                # a population capture is in flight; delay briefly
                self.interconnect.sched.call_after(
                    0.0005, lambda: self._receive(from_instance, payload)
                )
                return
            try:
                self._apply_staged()
                self.query_scn.publish(
                    payload.scn, at_time=self.interconnect.sched.now
                )
            finally:
                self.quiesce_lock.release_exclusive(self)
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

    def attach_actors(self, sched: Scheduler) -> None:
        for i in range(self.config.imcs.population_workers):
            sched.add_actor(
                PopulationWorker(
                    self.population,
                    name=f"satellite{self.instance_id}-popworker-{i}",
                    node=self.node,
                    sweep=(i == 0),
                )
            )

    def enable_inmemory(self, table_name, partition=None, columns=None):
        table = self.master.catalog.table(table_name)
        self.imcs.enable(table, partition, columns)
        self.population.schedule_all()


# ----------------------------------------------------------------------
class RemoteInvalidationRouter:
    """Master-side router: local groups apply directly, remote groups ride
    the interconnect in batched, pipelined messages; ``drained`` gates the
    master's QuerySCN publication on the satellites' acknowledgements."""

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
        key_dbas = group.keys >> ROW_KEY_SHIFT
        split = self.home_map.split_by_home(
            group.object_id,
            np.union1d(key_dbas, group.whole_blocks).tolist(),
        )
        return {
            instance: InvalidationGroup(
                group.object_id,
                group.tenant,
                group.commit_scn,
                group.keys[np.isin(key_dbas, dbas)],
                group.whole_blocks[np.isin(group.whole_blocks, dbas)],
            )
            for instance, dbas in split.items()
        }

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
                merged = InMemorySegment(
                    table=segment.table,
                    partition=segment.partition,
                    inmemory_columns=segment.inmemory_columns,
                )
            merged.units.extend(segment.live_units())
            merged.dba_to_unit.update(segment.dba_to_unit)
        if merged is None:
            raise KeyError(f"object {object_id} not enabled anywhere")
        return merged


# ----------------------------------------------------------------------
class StandbyCluster:
    """A SIRA standby RAC: one apply master plus N satellites."""

    def __init__(
        self,
        master: StandbyDatabase,
        sched: Scheduler,
        n_instances: int = 2,
        master_instance_id: InstanceId = 1,
        config: Optional[SystemConfig] = None,
    ) -> None:
        if n_instances < 1:
            raise ValueError("cluster needs at least one instance")
        self.master = master
        self.sched = sched
        self.config = config or master.config
        self.master_instance_id = master_instance_id
        instance_ids = list(range(1, n_instances + 1))
        self.home_map = HomeLocationMap(
            instance_ids,
            range_blocks=max(
                1,
                self.config.imcs.imcu_target_rows
                // self.config.rowstore.rows_per_block,
            ),
        )
        self.interconnect = Interconnect(
            sched, latency=self.config.rac.interconnect_latency
        )
        self.router = RemoteInvalidationRouter(
            master.imcs,
            master_instance_id,
            self.home_map,
            self.interconnect,
            batch_size=self.config.rac.invalidation_batch_size,
        )
        self.interconnect.register(master_instance_id, self._master_receive)
        master.flush.router = self.router
        # master population restricted to blocks homed on the master
        master.population.dba_filter = (
            lambda object_id, dba: self.home_map.is_home(
                master_instance_id, object_id, dba
            )
        )
        self.satellites = [
            StandbySatellite(
                instance_id, master, self.home_map, self.interconnect,
                master_instance_id, self.config,
            )
            for instance_id in instance_ids
            if instance_id != master_instance_id
        ]
        # master's QuerySCN publication fans out to local coordinators
        master.query_scn.subscribe(self._publish_to_satellites)

    # ------------------------------------------------------------------
    def _master_receive(self, from_instance: InstanceId, payload: object) -> None:
        if isinstance(payload, _Ack):
            self.router.on_ack(from_instance, payload)
        else:
            raise TypeError(f"unexpected payload at master: {payload!r}")

    def _publish_to_satellites(self, scn: SCN) -> None:
        for satellite in self.satellites:
            self.interconnect.send(
                self.master_instance_id,
                satellite.instance_id,
                _QuerySCNPublish(scn),
            )

    # ------------------------------------------------------------------
    def attach_actors(self, sched: Scheduler) -> None:
        for satellite in self.satellites:
            satellite.attach_actors(sched)

    def enable_inmemory(self, table_name, partition=None, columns=None):
        object_ids = self.master.enable_inmemory(table_name, partition, columns)
        for satellite in self.satellites:
            satellite.enable_inmemory(table_name, partition, columns)
        return object_ids

    # ------------------------------------------------------------------
    @property
    def stores(self) -> list[InMemoryColumnStore]:
        return [self.master.imcs] + [s.imcs for s in self.satellites]

    def query(
        self,
        table_name: str,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
        instance_id: Optional[InstanceId] = None,
    ) -> ScanResult:
        """Cluster-wide scan at the serving instance's local QuerySCN."""
        if instance_id is None or instance_id == self.master_instance_id:
            snapshot = self.master.query_scn.value
        else:
            satellite = next(
                s for s in self.satellites if s.instance_id == instance_id
            )
            snapshot = satellite.query_scn.value
        table = self.master.catalog.table(table_name)
        engine = ScanEngine(
            MergedStoreView(self.stores), self.master.txn_table
        )
        return engine.scan(table, snapshot, predicates, columns, partitions)

    def populated_rows(self) -> dict[InstanceId, int]:
        out = {self.master_instance_id: self.master.imcs.populated_rows}
        for satellite in self.satellites:
            out[satellite.instance_id] = satellite.imcs.populated_rows
        return out

    def fully_populated(self) -> bool:
        return self.master.population.fully_populated() and all(
            s.population.fully_populated() for s in self.satellites
        )
