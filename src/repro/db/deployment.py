"""Deployment: a primary cluster + N >= 1 physical standbys, wired and
scheduled.

This is the top of the public API:

    from repro.db import Deployment, TableDef, ColumnDef, InMemoryService

    deployment = Deployment.build()
    deployment.create_table(TableDef("T", (ColumnDef.number("id"), ...)))
    deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
    ...DML on deployment.primary...
    deployment.catch_up()
    result = deployment.standby.query("T", [Predicate.eq("n1", 5)])

The paper's capacity-expansion topology (Fig. 2) is one primary, redo
transport, and one or more standbys behind services.  ``build`` wires it
in one deterministic scheduler:

* one :class:`~repro.db.primary.PrimaryDatabase` generating redo;
* one :class:`~repro.redo.shipping.LogShipper` per redo thread,
  delivering every batch to all mounted members;
* ``n_standbys`` :class:`~repro.db.member.StandbyMember` wrappers, each a
  full independent :class:`~repro.db.standby.StandbyDatabase` pipeline
  with its own CPU node and FAL source.  ``deployment.standby`` is
  ``members[0].standby``.  ``add_standby_cluster`` turns a member into a
  RAC standby of N instances (SIRA or MIRA apply).

The in-memory *service* decides where partitions populate: ``PRIMARY`` /
``STANDBY`` / ``BOTH``.  Whatever the choice, the primary is told about
standby enablement so its commit records carry the section III-E flag.

Standby loss (``lose_standby``) dismounts a member: its shipping stops,
the actors it attached leave the scheduler, its query workers shut down,
and registered ``on_standby_loss`` callbacks (the router) drain its
sessions.  ``lose_primary`` is the other half of a disaster drill.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro import obs
from repro.common.config import SystemConfig
from repro.common.errors import InvalidStateError, ObjectNotFoundError
from repro.redo.shipping import LogShipper
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Scheduler
from repro.db.member import StandbyMember
from repro.db.primary import PrimaryDatabase
from repro.db.schema_def import TableDef
from repro.db.standby import StandbyDatabase
from repro.rowstore.table import Table


class InMemoryService(enum.Enum):
    """Which databases populate an object into their IMCS."""

    PRIMARY = "primary"
    STANDBY = "standby"
    BOTH = "both"


class Deployment:
    """A primary + N standby members sharing one deterministic scheduler."""

    def __init__(
        self,
        primary: PrimaryDatabase,
        members: list[StandbyMember],
        shippers: list[LogShipper],
        sched: Scheduler,
        config: SystemConfig,
    ) -> None:
        self.primary = primary
        self.members = members
        self.shippers = shippers
        self.sched = sched
        self.config = config
        #: Callbacks fired (synchronously) when a member dismounts; the
        #: router registers here to drain/redistribute its sessions.
        self.on_standby_loss: list[Callable[[StandbyMember], None]] = []
        #: The metrics registry that was collecting while the pipeline was
        #: constructed (None outside ``obs.collecting``); its ``tracer``
        #: stamps redo through the lifecycle stages.
        self.obs = obs.current()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: Optional[SystemConfig] = None,
        n_standbys: int = 1,
        heartbeats: bool = True,
    ) -> "Deployment":
        """Construct and wire a fresh deployment of ``n_standbys``
        members (``standby-1`` .. ``standby-N``)."""
        if n_standbys < 1:
            raise ValueError("a deployment needs at least one standby")
        config = config or SystemConfig()
        sched = Scheduler(seed=config.seed, jitter=0.05)
        registry = obs.current()
        if registry is not None and registry.tracer is None:
            # arm the redo-lifecycle tracer before any component (or
            # redo record) exists, so stage stamps start at generation
            registry.tracer = obs.RedoLifecycleTracer(sched, registry)
        primary = PrimaryDatabase(config)

        def fal_fetch(thread, lo, hi):
            # Fetch Archive Log: a standby pulls an archive gap straight
            # from the primary's (never-recycled) log files.
            return primary.redo_logs[thread - 1].batch(lo, hi)

        members = []
        for i in range(1, n_standbys + 1):
            standby = StandbyDatabase(
                config, node=CpuNode(f"standby-{i}", n_cpus=16)
            )
            standby.receiver.fal_fetch = fal_fetch
            members.append(StandbyMember(standby))
        shippers = [
            LogShipper(
                log,
                {m.name: m.standby.receiver for m in members},
                latency=config.ship_latency,
                node=primary.instances[log.thread - 1].node,
            )
            for log in primary.redo_logs
        ]
        for shipper in shippers:
            sched.add_actor(shipper)
        primary.attach_actors(sched, heartbeats=heartbeats)
        for member in members:
            member.standby.attach_actors(sched)
        primary.attach_undo_retention(sched)
        for member in members:
            member.standby.attach_undo_retention(sched)
        return cls(primary, members, shippers, sched, config)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def standby(self) -> StandbyDatabase:
        """The first member's database (the only one when N = 1)."""
        return self.members[0].standby

    def member(self, name: Optional[str] = None) -> StandbyMember:
        """The member called ``name``; the first member when None."""
        if name is None:
            return self.members[0]
        for member in self.members:
            if member.name == name:
                return member
        raise ObjectNotFoundError(f"no such standby member: {name!r}")

    @property
    def mounted_members(self) -> list[StandbyMember]:
        return [m for m in self.members if m.mounted]

    @property
    def standby_mounted(self) -> bool:
        """Routing liveness probe: is any member still serving?
        ``lose_standby`` and ``failover()`` dismount a member, which (once
        none is left) flips PRIMARY_AND_STANDBY routing to the primary."""
        return any(m.mounted for m in self.members)

    def lose_standby(self, name: str) -> StandbyMember:
        """Dismount a member (crash/eviction): shipping to any of its
        instances stops, the actors it attached leave the scheduler, its
        query service shuts down, and ``on_standby_loss`` callbacks drain
        its sessions."""
        member = self.member(name)
        if not member.mounted:
            return member
        for shipper in self.shippers:
            for instance in member.instances:
                shipper.remove_destination(instance.node.name)
        member.standby.detach_actors(self.sched)
        if member.query_service is not None:
            member.query_service.shutdown()
        for callback in self.on_standby_loss:
            callback(member)
        return member

    def lose_primary(self) -> None:
        """The primary dies: redo transport and every actor the primary
        attached stop.  What was already shipped stays in flight, so a
        ``failover()`` afterwards loses nothing that left the primary."""
        for shipper in self.shippers:
            self.sched.remove_actor(shipper)
        self.primary.detach_actors(self.sched)

    def add_standby_cluster(
        self,
        n_instances: int = 2,
        member: Optional[str] = None,
        mira: bool = False,
    ) -> StandbyMember:
        """Scale a member (the first by default) out to an
        ``n_instances`` RAC standby and return it (paper, III-F).

        Its database becomes instance 1, the apply master; every other
        instance hosts the IMCUs the home-location map gives it and a
        local coordinator.  Redo apply runs on the master only (SIRA) or,
        with ``mira``, on every instance, each receiving the redo stream
        from the deployment's shippers and applying the change vectors it
        owns (Multi-Instance Redo Apply, paper V).  Call before the
        deployment runs: a MIRA instance applies from the start of the
        logs.
        """
        target = self.member(member)
        if self.sched.now or target.peers:
            raise InvalidStateError(
                "a member scales out once, before the deployment runs"
            )
        target.scale_out(self.sched, n_instances, mira)
        for peer in target.peers:
            if peer.workers:
                for shipper in self.shippers:
                    shipper.add_destination(peer.node.name, peer.receiver)
        return target

    # ------------------------------------------------------------------
    # query service
    # ------------------------------------------------------------------
    def start_query_service(self, n_workers: int = 4):
        """Attach a morsel-parallel query service to every mounted
        member; returns the first member's."""
        from repro.query.service import QueryService

        for member in self.mounted_members:
            member.query_service = QueryService(member, self.sched, n_workers)
        return self.members[0].query_service

    # ------------------------------------------------------------------
    # CDC egress (repro.cdc)
    # ------------------------------------------------------------------
    def start_cdc(
        self,
        tables: Optional[list[str]] = None,
        backfill: bool = True,
        member: Optional[str] = None,
    ):
        """Attach a CDC egress + pump to one member (the first by
        default; a reader farm typically dedicates one standby to CDC so
        subscriber fan-out never competes with the query members' scans).

        ``tables`` must already be in-memory enabled on the standby
        (mining only journals IMCS-enabled objects, so the feed covers
        exactly those).  Returns the :class:`~repro.cdc.egress.CDCEgress`;
        attach subscribers with ``egress.subscribe(...)``.
        """
        from repro.cdc import CDCEgress, CDCPump

        source = self.member(member)
        egress = CDCEgress(source.standby, self.sched)
        for name in tables or []:
            egress.capture(name, backfill=backfill)
        source.standby.attach_actor(self.sched, CDCPump(
            egress, node=source.standby.node, name=f"{source.name}-cdc-pump",
        ))
        source.cdc = egress
        return egress

    # ------------------------------------------------------------------
    # instant restart (repro.restart)
    # ------------------------------------------------------------------
    def enable_restart_checkpoints(self):
        """Arm instant restart on every mounted member: schedule a
        background checkpoint writer and give the standby a redo-tail
        fetch over the primary's logs (the same never-recycled archive
        the FAL path reads).

        Returns the first member's
        :class:`~repro.restart.checkpoint.CheckpointStore` (each member's
        is its ``standby.checkpoint_store``).
        """
        from repro.restart.checkpoint import CheckpointStore, CheckpointWriter

        restart_cfg = self.config.restart
        primary_logs = self.primary.redo_logs

        def redo_tail_fetch(lo_scn, hi_scn):
            return [
                log.batch(*log.scn_range(lo_scn, hi_scn))
                for log in primary_logs
            ]

        for member in self.mounted_members:
            standby = member.standby
            store = CheckpointStore()
            standby.enable_restart_checkpoints(store, redo_tail_fetch)
            standby.attach_actor(self.sched, CheckpointWriter(
                standby,
                store,
                interval=restart_cfg.checkpoint_interval,
                name=f"{member.name}-checkpoint-writer",
                node=standby.node,
            ))
        return self.standby.checkpoint_store

    def restart_standby(
        self, cold: bool = False, member: Optional[str] = None
    ):
        """Bounce one member's standby (the first by default) and return
        its restart report."""
        standby = self.member(member).standby
        standby.restart(cold=cold)
        return standby.last_restart_report

    # ------------------------------------------------------------------
    # schema + in-memory management
    # ------------------------------------------------------------------
    def create_table(self, table_def: TableDef) -> Table:
        """Create on the primary; every member materialises the table
        from the same create-table redo marker (identical object ids)."""
        return self.primary.create_table(table_def)

    def enable_inmemory(
        self,
        table_name: str,
        service: InMemoryService = InMemoryService.BOTH,
        partition: Optional[str] = None,
        columns: Optional[list[str]] = None,
    ) -> None:
        if service in (InMemoryService.PRIMARY, InMemoryService.BOTH):
            self.primary.enable_inmemory(table_name, partition, columns)
        if service in (InMemoryService.STANDBY, InMemoryService.BOTH):
            # the standbys' dictionaries learn about new tables via redo:
            # make sure the marker has been applied first
            self.run_until_standby_has(table_name)
            object_ids: list[int] = []
            for member in self.mounted_members:
                object_ids = member.enable_inmemory(
                    table_name, partition, columns
                )
            # told once: members share object ids
            if object_ids:
                self.primary.note_standby_enablement(object_ids)

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        self.sched.run_for(duration)

    def run_until_standby_has(self, table_name: str, timeout: float = 60.0) -> None:
        """Run until every mounted member has *applied* the table's
        create-table marker: each of its workers is past the marker's SCN.
        The dictionary entry appears one stage earlier, when the marker is
        distributed; releasing population there would start it before the
        member's apply has caught up with the table."""

        def applied(member: StandbyMember) -> bool:
            scn = member.standby.applier.created_at.get(table_name)
            return scn is not None and member.applied_through_scn >= scn

        ok = self.sched.run_until_condition(
            lambda: all(applied(m) for m in self.mounted_members),
            max_time=timeout,
        )
        if not ok:
            raise TimeoutError(
                f"standby never received table {table_name!r}"
            )

    def catch_up(self, timeout: float = 600.0) -> None:
        """Run until every mounted member's QuerySCN covers all primary
        redo generated so far and population backlogs (the primary's
        included) are drained."""
        target = self.primary.clock.current

        def caught_up() -> bool:
            return self.primary.population.fully_populated() and all(
                m.published_scn >= target and m.fully_populated()
                for m in self.mounted_members
            )

        if not self.sched.run_until_condition(caught_up, max_time=timeout):
            laggards = {
                m.name: m.published_scn
                for m in self.mounted_members
                if m.published_scn < target
            }
            raise TimeoutError(
                f"standby lagging: QuerySCN {laggards} < {target} "
                f"after {timeout}s"
            )

    # ------------------------------------------------------------------
    # lag metrics (Fig. 11, per member)
    # ------------------------------------------------------------------
    def member_lag(self, member: StandbyMember) -> int:
        """How far a member's published QuerySCN trails redo generation."""
        newest = max(log.last_scn for log in self.primary.redo_logs)
        return max(0, newest - member.published_scn)

    @property
    def redo_lag_scns(self) -> int:
        """Worst-case lag over the mounted members."""
        return max(
            (self.member_lag(m) for m in self.mounted_members), default=0
        )
