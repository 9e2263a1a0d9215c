"""FleetDeployment: one primary fanning redo out to N standby members.

The paper's capacity-expansion story (Fig. 2) scales reads by adding
standby databases behind one primary; this module builds that topology
in one deterministic scheduler:

* one :class:`~repro.db.primary.PrimaryDatabase` generating redo;
* one :class:`~repro.redo.shipping.FanOutLogShipper` per redo thread,
  delivering every batch to all mounted members;
* N :class:`~repro.fleet.member.StandbyMember` wrappers, each a full
  independent :class:`~repro.db.standby.StandbyDatabase` pipeline with
  its own CPU node, FAL source and (optionally) its own
  :class:`~repro.query.service.QueryService`.

The classic :class:`~repro.db.deployment.Deployment` is the degenerate
fleet of size one.  Standby loss (``lose_standby``) dismounts a member:
its shipping stops, its apply actors leave the scheduler, its query
workers shut down, and registered ``on_standby_loss`` callbacks (the
router) drain its sessions.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import obs
from repro.common.config import SystemConfig
from repro.common.errors import ObjectNotFoundError
from repro.fleet.member import StandbyMember
from repro.redo.shipping import FanOutLogShipper
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Scheduler
from repro.db.primary import PrimaryDatabase
from repro.db.schema_def import TableDef
from repro.db.standby import StandbyDatabase


class FleetDeployment:
    """A primary + N-standby reader farm on one deterministic scheduler."""

    def __init__(
        self,
        primary: PrimaryDatabase,
        members: list[StandbyMember],
        sched: Scheduler,
        config: SystemConfig,
    ) -> None:
        self.primary = primary
        self.members = members
        self.sched = sched
        self.config = config
        self.shippers: list[FanOutLogShipper] = []
        #: Callbacks fired (synchronously) when a member dismounts; the
        #: router registers here to drain/redistribute its sessions.
        self.on_standby_loss: list[Callable[[StandbyMember], None]] = []
        self.obs = obs.current()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_standbys: int = 3,
        config: Optional[SystemConfig] = None,
        dbim_on_adg: bool = True,
        heartbeats: bool = True,
    ) -> "FleetDeployment":
        """Construct and wire a fleet of ``n_standbys`` members."""
        if n_standbys < 1:
            raise ValueError("a fleet needs at least one standby")
        config = config or SystemConfig()
        sched = Scheduler(seed=config.seed, jitter=0.05)
        registry = obs.current()
        if registry is not None and registry.tracer is None:
            registry.tracer = obs.RedoLifecycleTracer(sched, registry)
        primary = PrimaryDatabase(config)

        def fal_fetch(thread, lo, hi):
            log = primary.redo_logs[thread - 1]
            return [log.record_at(i) for i in range(lo, hi)]

        members: list[StandbyMember] = []
        for i in range(1, n_standbys + 1):
            name = f"standby-{i}"
            standby = StandbyDatabase(
                config,
                dbim_enabled=dbim_on_adg,
                node=CpuNode(name, n_cpus=16),
            )
            standby.receiver.fal_fetch = fal_fetch
            # namespace the member's actors so N pipelines can share one
            # scheduler without name collisions
            standby.merger.name = f"{name}-log-merger"
            standby.coordinator.name = f"{name}-recovery-coordinator"
            for worker in standby.workers:
                worker.name = f"{name}-{worker.name}"
            members.append(StandbyMember(name, standby))

        fleet = cls(primary, members, sched, config)
        for log in primary.redo_logs:
            shipper = FanOutLogShipper(
                log,
                [(m.name, m.standby.receiver) for m in members],
                latency=config.ship_latency,
                node=primary.instances[log.thread - 1].node,
            )
            sched.add_actor(shipper)
            fleet.shippers.append(shipper)
        primary.attach_actors(sched, heartbeats=heartbeats)
        for member in members:
            member.standby.attach_actors(sched, name_prefix=member.name)

        from repro.rowstore.undo_retention import UndoRetentionManager

        keep = config.rowstore.undo_retention_versions
        sched.add_actor(UndoRetentionManager(
            primary.block_store, keep, name="primary-undo-retention",
            node=primary.instances[0].node,
        ))
        for member in members:
            sched.add_actor(UndoRetentionManager(
                member.standby.block_store, keep,
                name=f"{member.name}-undo-retention",
                node=member.standby.node,
            ))
        return fleet

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def member(self, name: str) -> StandbyMember:
        for member in self.members:
            if member.name == name:
                return member
        raise ObjectNotFoundError(f"no such fleet member: {name!r}")

    @property
    def mounted_members(self) -> list[StandbyMember]:
        return [m for m in self.members if m.mounted]

    @property
    def standby_mounted(self) -> bool:
        """Routing liveness probe: is any member still serving?"""
        return any(m.mounted for m in self.members)

    def lose_standby(self, name: str) -> StandbyMember:
        """Dismount a member (crash/eviction): shipping to it stops, its
        apply pipeline leaves the scheduler, its query service shuts
        down, and ``on_standby_loss`` callbacks drain its sessions."""
        member = self.member(name)
        if not member.mounted:
            return member
        member.mounted = False
        for shipper in self.shippers:
            shipper.remove_destination(name)
        standby = member.standby
        self.sched.remove_actor(standby.merger)
        self.sched.remove_actor(standby.coordinator)
        for worker in standby.workers:
            self.sched.remove_actor(worker)
        doomed_prefix = f"{name}-popworker"
        for actor in list(self.sched.actors):
            if actor.name.startswith(doomed_prefix):
                self.sched.remove_actor(actor)
            elif actor.name == f"{name}-undo-retention":
                self.sched.remove_actor(actor)
        if member.query_service is not None:
            member.query_service.pool.shutdown()
        for callback in self.on_standby_loss:
            callback(member)
        return member

    # ------------------------------------------------------------------
    # schema + in-memory management (fleet-wide)
    # ------------------------------------------------------------------
    def create_table(self, table_def: TableDef):
        """Create on the primary; every member materialises the table
        from the same create-table redo marker (identical object ids)."""
        return self.primary.create_table(table_def)

    def run_until_members_have(
        self, table_name: str, timeout: float = 60.0
    ) -> None:
        ok = self.sched.run_until_condition(
            lambda: all(
                table_name in m.standby.catalog for m in self.mounted_members
            ),
            max_time=timeout,
        )
        if not ok:
            raise TimeoutError(
                f"fleet members never received table {table_name!r}"
            )

    def enable_inmemory(
        self,
        table_name: str,
        partition: Optional[str] = None,
        columns: Optional[list[str]] = None,
        on_primary: bool = False,
    ) -> None:
        """Enable the object on every member's IMCS (and optionally on
        the primary); the primary is told once, because members share
        object ids."""
        if on_primary:
            self.primary.enable_inmemory(table_name, partition, columns)
        self.run_until_members_have(table_name)
        object_ids: list[int] = []
        for member in self.mounted_members:
            object_ids = member.standby.enable_inmemory(
                table_name, partition, columns
            )
        if object_ids:
            self.primary.note_standby_enablement(object_ids)

    def start_cdc(
        self,
        member_name: str,
        tables: Optional[list[str]] = None,
        backfill: bool = True,
    ):
        """Attach a CDC egress + pump to one fleet member.

        Any member can act as the streaming source -- a reader-farm
        deployment typically dedicates one standby to CDC so subscriber
        fan-out never competes with the query members' scan capacity.
        Returns the member's :class:`~repro.cdc.egress.CDCEgress`.
        """
        from repro.cdc import CDCEgress, CDCPump

        member = self.member(member_name)
        egress = CDCEgress(member.standby, self.sched)
        for name in tables or []:
            egress.capture(name, backfill=backfill)
        self.sched.add_actor(CDCPump(
            egress,
            node=member.standby.node,
            name=f"{member_name}-cdc-pump",
        ))
        member.cdc = egress
        return egress

    def start_query_services(
        self,
        n_workers: int = 4,
        cache_capacity: int = 256,
        enable_cache: bool = True,
    ) -> None:
        """Attach a morsel-parallel query service to every member."""
        from repro.query.service import QueryService

        for member in self.members:
            member.query_service = QueryService(
                member.standby, self.sched,
                n_workers=n_workers,
                cache_capacity=cache_capacity,
                enable_cache=enable_cache,
                node=member.standby.node,
                name=f"{member.name}-query",
            )

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        self.sched.run_for(duration)

    def catch_up(self, timeout: float = 600.0) -> None:
        """Run until every mounted member's QuerySCN covers all primary
        redo generated so far and population backlogs are drained."""
        target = self.primary.clock.current

        def caught_up() -> bool:
            return all(
                m.standby.query_scn.value >= target
                and m.standby.population.fully_populated()
                for m in self.mounted_members
            )

        if not self.sched.run_until_condition(caught_up, max_time=timeout):
            laggards = {
                m.name: m.standby.query_scn.value
                for m in self.mounted_members
                if m.standby.query_scn.value < target
            }
            raise TimeoutError(
                f"fleet lagging: {laggards} < {target} after {timeout}s"
            )

    # ------------------------------------------------------------------
    # lag metrics (Fig. 11, per member)
    # ------------------------------------------------------------------
    @property
    def newest_generated_scn(self) -> int:
        return max(log.last_scn for log in self.primary.redo_logs)

    def member_lag(self, member: StandbyMember) -> int:
        """How far a member's published QuerySCN trails redo generation."""
        return max(
            0, self.newest_generated_scn - member.standby.query_scn.value
        )

    @property
    def redo_lag_scns(self) -> int:
        """Worst-case member lag (the chaos harness's lag sampler)."""
        mounted = self.mounted_members
        if not mounted:
            return 0
        return max(self.member_lag(m) for m in mounted)


__all__ = ["FleetDeployment"]
