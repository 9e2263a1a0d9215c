"""The primary database cluster.

One :class:`PrimaryDatabase` models the whole primary cluster (one SCN
clock, one transaction table, one block store); each
:class:`PrimaryInstance` is a RAC node with its own redo thread, transaction
manager, heartbeat writer and CPU node.

The primary also runs its own DBIM: objects enabled with a primary-facing
service get populated into the local In-Memory Column Store, and every
commit invalidates the SMU rows it changed synchronously, reading them
back from its redo -- the classic dual-format maintenance of [Lahiri et
al., ICDE'15] that the paper's standby-side protocol replaces.

DDL support (the subset the paper's section III-G exercises):

* ``CREATE TABLE`` / ``CREATE INDEX``-at-creation -- marker only;
* ``TRUNCATE`` -- block wipe CV per partition plus a marker;
* ``DROP COLUMN`` -- dictionary-only change plus a marker;
* ``DROP TABLE`` and ``ALTER ... NO INMEMORY`` -- marker only.

Every DDL ships a redo marker so the standby's mining component can keep
its IMCS and catalog in sync (markers are "similar to redo records but are
used to indicate changes to non-persistent objects").
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import SystemConfig
from repro.common.ids import InstanceId, ObjectId, RowId, TenantId, TransactionId
from repro.common.scn import SCN, SCNClock
from repro.imcs.imcu import row_keys
from repro.imcs.store import InvalidationGroup
from repro.redo.log import RedoLog
from repro.redo.records import (
    CVOp,
    DDLMarkerPayload,
    ddl_marker_dba,
    truncate_dba,
    txn_table_dba,
)
from repro.rowstore.table import Table
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler
from repro.txn.manager import Transaction, TransactionManager
from repro.db.features import Database
from repro.db.schema_def import TableDef


#: Simulated seconds between an instance's heartbeat redo writes.
HEARTBEAT_INTERVAL = 0.005


class HeartbeatWriter(Actor):
    """Writes periodic heartbeat redo on an instance.

    Keeps the standby's merge watermark moving when this instance is idle
    (see :mod:`repro.adg.merger`).
    """

    def __init__(
        self,
        instance: InstanceId,
        clock: SCNClock,
        log: RedoLog,
        node: Optional[CpuNode] = None,
    ) -> None:
        self.instance = instance
        self.clock = clock
        self.log = log
        self.node = node
        self.name = f"heartbeat-{instance}"
        self._cv = (
            int(CVOp.HEARTBEAT), txn_table_dba(instance), 0, 0,
            TransactionId(instance, 0), -1, None, None,
        )
        self._last_write = -1.0

    def step(self, sched: Scheduler) -> Optional[float]:
        # parked until the next write is due
        if sched.now < self._last_write + HEARTBEAT_INTERVAL:
            self.park = self._last_write + HEARTBEAT_INTERVAL
            return None
        self._last_write = sched.now
        self.park = self._last_write + HEARTBEAT_INTERVAL
        self.log.append(self.instance, self.clock.next(), (self._cv,))
        return 1e-6  # negligible cost


class PrimaryInstance:
    """One RAC node of the primary cluster."""

    def __init__(
        self,
        instance_id: InstanceId,
        manager: TransactionManager,
        redo_log: RedoLog,
        node: CpuNode,
    ) -> None:
        self.instance_id = instance_id
        self.manager = manager
        self.redo_log = redo_log
        self.node = node

    def __repr__(self) -> str:
        return f"PrimaryInstance({self.instance_id})"


class PrimaryDatabase(Database):
    """The primary cluster: transactions, redo generation, primary DBIM.

    With ``mounted`` it opens that database's core read-write instead of
    building one (failover activation, :mod:`repro.db.failover`): its
    SCN clock starts at ``start_scn``.
    """

    actor_prefix = "primary"

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        n_instances: Optional[int] = None,
        mounted: Optional[Database] = None,
        start_scn: SCN = 1,
    ) -> None:
        self.config = config or SystemConfig()
        count = n_instances or self.config.rac.primary_instances
        self.clock = SCNClock(start=start_scn)
        self._mount(mounted)
        #: Objects enabled for IMCS population on *any* database -- drives
        #: the specialized commit-record flag (paper, III-E).
        self.imcs_enabled_objects: set[ObjectId] = set(
            self.imcs.enabled_object_ids
        )
        node_prefix = "primary" if mounted is None else "activated-primary"
        self.instances: list[PrimaryInstance] = []
        for i in range(1, count + 1):
            node = CpuNode(f"{node_prefix}-{i}", n_cpus=16)
            log = RedoLog(thread=i)
            manager = TransactionManager(
                instance=i,
                clock=self.clock,
                txn_table=self.txn_table,
                redo_log=log,
                imcs_enabled_objects=self.imcs_enabled_objects,
                specialized_commit_redo=self.config.journal.specialized_commit_redo,
            )
            self.instances.append(PrimaryInstance(i, manager, log, node))

    def query_snapshot(self) -> SCN:
        return self.clock.current

    def _capture_snapshot(self) -> SCN:
        return self.clock.current

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def instance(self, instance_id: InstanceId) -> PrimaryInstance:
        return self.instances[instance_id - 1]

    @property
    def node(self) -> CpuNode:
        """Instance 1's node: where the primary's background work runs."""
        return self.instances[0].node

    @property
    def redo_logs(self) -> list[RedoLog]:
        return [inst.redo_log for inst in self.instances]

    def attach_actors(self, sched: Scheduler, heartbeats: bool = True) -> None:
        """Register background actors (heartbeats, population workers)."""
        if heartbeats:
            for inst in self.instances:
                self.attach_actor(
                    sched,
                    HeartbeatWriter(
                        inst.instance_id, self.clock, inst.redo_log,
                        node=inst.node,
                    ),
                )
        for worker in self.population.workers(self.actor_prefix, self.node):
            self.attach_actor(sched, worker)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _emit_marker(
        self, payload: DDLMarkerPayload, instance_id: InstanceId = 1
    ) -> SCN:
        scn = self.clock.next()
        first_oid = payload.object_ids[0] if payload.object_ids else 0
        cv = (
            int(CVOp.DDL_MARKER), ddl_marker_dba(first_oid), first_oid,
            payload.detail.get("tenant", 0), TransactionId(instance_id, 0),
            -1, None, payload,
        )
        self.instance(instance_id).redo_log.append(instance_id, scn, (cv,))
        return scn

    def create_table(self, table_def: TableDef) -> Table:
        table = self.catalog.create_table(table_def)
        shipped = self.catalog.definition(table_def.name)
        self._emit_marker(
            DDLMarkerPayload(
                kind="create_table",
                object_ids=tuple(table.object_ids),
                table_name=table.name,
                detail={"table_def": shipped, "tenant": table.tenant},
            )
        )
        return table

    def drop_column(self, table_name: str, column: str) -> None:
        """Dictionary-only column drop (paper, III-G's example DDL)."""
        table = self.catalog.table(table_name)
        table.schema.drop_column(column)
        # primary DBIM integration is direct: the column disappears from
        # the local IMCUs immediately (column-level SMU invalidation).
        scn = self.clock.current
        for object_id in table.object_ids:
            if self.imcs.is_enabled(object_id):
                for smu in self.imcs.segment(object_id).live_units():
                    smu.invalidate_column(column, scn)
        self._emit_marker(
            DDLMarkerPayload(
                kind="drop_column",
                object_ids=tuple(table.object_ids),
                table_name=table_name,
                detail={"column": column, "tenant": table.tenant},
            )
        )

    def truncate_table(
        self, table_name: str, partition: Optional[str] = None
    ) -> None:
        """TRUNCATE: wipe rows, emit block-level CVs + a marker."""
        table = self.catalog.table(table_name)
        names = [partition] if partition else list(table.partitions)
        instance = self.instance(1)
        object_ids = []
        for name in names:
            part = table.partition(name)
            scn = self.clock.next()
            table.truncate_partition(name, scn)
            cv = (
                int(CVOp.TRUNCATE), truncate_dba(part.object_id),
                part.object_id, table.tenant, TransactionId(1, 0),
                -1, None, None,
            )
            instance.redo_log.append(1, scn, (cv,))
            object_ids.append(part.object_id)
            if self.imcs.is_enabled(part.object_id):
                self.imcs.drop_units(part.object_id)
        self._emit_marker(
            DDLMarkerPayload(
                kind="truncate",
                object_ids=tuple(object_ids),
                table_name=table_name,
                detail={"tenant": table.tenant},
            )
        )

    def drop_table(self, table_name: str) -> None:
        table = self.catalog.table(table_name)
        object_ids = tuple(table.object_ids)
        for object_id in object_ids:
            if self.imcs.is_enabled(object_id):
                self.imcs.disable(object_id)
            self.imcs_enabled_objects.discard(object_id)
        self.catalog.drop_table(table_name)
        self._emit_marker(
            DDLMarkerPayload(
                kind="drop_table",
                object_ids=object_ids,
                table_name=table_name,
                detail={"tenant": table.tenant},
            )
        )

    # ------------------------------------------------------------------
    # in-memory enablement (primary side)
    # ------------------------------------------------------------------
    def enable_inmemory(
        self,
        table_name: str,
        partition: Optional[str] = None,
        columns: Optional[list[str]] = None,
    ) -> list[ObjectId]:
        object_ids = super().enable_inmemory(table_name, partition, columns)
        self.imcs_enabled_objects.update(object_ids)
        return object_ids

    def note_standby_enablement(self, object_ids: list[ObjectId]) -> None:
        """Record that the standby populates these objects, so commit
        records carry the modifies-IMCS flag for them too."""
        self.imcs_enabled_objects.update(object_ids)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(
        self, tenant: TenantId = 0, instance_id: InstanceId = 1
    ) -> Transaction:
        return self.instance(instance_id).manager.begin(tenant)

    def manager_of(self, txn: Transaction) -> TransactionManager:
        return self.instance(txn.xid.instance).manager

    def insert(
        self,
        txn: Transaction,
        table_name: str,
        values: tuple,
        partition: Optional[str] = None,
    ) -> RowId:
        table = self.catalog.table(table_name)
        return self.manager_of(txn).insert(txn, table, values, partition)

    def update(
        self,
        txn: Transaction,
        table_name: str,
        rowid: RowId,
        changes: dict[str, object],
    ) -> None:
        table = self.catalog.table(table_name)
        self.manager_of(txn).update(txn, table, rowid, changes)

    def delete(self, txn: Transaction, table_name: str, rowid: RowId) -> None:
        table = self.catalog.table(table_name)
        self.manager_of(txn).delete(txn, table, rowid)

    def commit(self, txn: Transaction) -> SCN:
        """Commit on the transaction's thread, then invalidate the rows it
        changed in the primary's own IMCS synchronously: one group per
        enabled object, the rows read back from that thread's redo."""
        manager = self.manager_of(txn)
        commit_scn = manager.commit(txn)
        keys: dict[ObjectId, set[int]] = {}
        for object_id, dba, slot in manager.changed_rows(txn):
            if self.imcs.is_enabled(object_id):
                keys.setdefault(object_id, set()).add(row_keys(dba, slot))
        self.imcs.invalidate_groups([
            InvalidationGroup(
                object_id, txn.tenant, commit_scn, sorted(of_object), []
            )
            for object_id, of_object in keys.items()
        ])
        return commit_scn

    def rollback(self, txn: Transaction) -> None:
        self.manager_of(txn).rollback(txn)
