"""One standby member of a deployment.

A :class:`StandbyMember` is one standby database with N >= 1 instances:
instance 1 is its full :class:`StandbyDatabase` pipeline, and a RAC
standby (``deployment.add_standby_cluster``) adds peer instances over the
same mounted database (:class:`~repro.rac.cluster.PeerInstance`).  It
reads like a database (:class:`~repro.db.features.ReadSide`): every
query scans all its instances' IMCUs at its published QuerySCN.  The
member also carries the serving-side state the deployment and the router
need: what was attached to it (query service, CDC egress) and the active
routed-session count (the router's load signal).
"""

from __future__ import annotations

from repro.common.ids import InstanceId
from repro.common.scn import SCN
from repro.db.features import ReadSide
from repro.db.standby import StandbyDatabase, StandbyInstance
from repro.imcs.aggregate import Aggregator
from repro.imcs.scan import ScanEngine


class StandbyMember(ReadSide):
    """A standby database inside a deployment, named after its node."""

    def __init__(self, standby: StandbyDatabase) -> None:
        self.name = standby.node.name
        self.node = standby.node
        self.standby = standby
        self.catalog = standby.catalog
        self.txn_table = standby.txn_table
        #: Instances 2..N of a RAC standby (``deployment.add_standby_cluster``).
        self.peers: list[StandbyInstance] = []
        #: Instance 1's engine; ``scale_out`` replaces it with one over
        #: every instance's IMCS, whose uncovered-block lists outlive a
        #: query.
        self.scan_engine = standby.scan_engine
        self._aggregator = standby._aggregator
        #: Attached by ``deployment.start_query_service``.
        self.query_service = None
        #: Attached by ``deployment.start_cdc``.
        self.cdc = None
        #: Routed sessions currently bound here (kept by the router).
        self.active_sessions = 0
        #: Lag behind the primary when this member last published a
        #: QuerySCN (kept by the router; Fig. 11, one line per member).
        self.lag_scns = 0

    # ------------------------------------------------------------------
    @property
    def instances(self) -> list[StandbyInstance]:
        return [self.standby, *self.peers]

    @property
    def mounted(self) -> bool:
        """False once the member is lost (``deployment.lose_standby``) or
        failed over: its pipeline is dismounted and no session may route
        here."""
        return self.standby.mounted

    @property
    def published_scn(self) -> SCN:
        """The member's published QuerySCN -- the consistency point every
        query on this member runs at: the lowest any of its instances has
        published, so each instance's SMUs cover it."""
        return min(instance.query_scn.value for instance in self.instances)

    def query_snapshot(self) -> SCN:
        return self.published_scn

    @property
    def applied_through_scn(self) -> SCN:
        """The SCN every recovery worker of the member has applied
        through."""
        return min(
            worker.applied_through()
            for instance in self.instances
            for worker in instance.workers
        )

    def fully_populated(self) -> bool:
        return all(
            instance.population.fully_populated()
            for instance in self.instances
        )

    def populated_rows(self) -> dict[InstanceId, int]:
        return {
            instance.instance_id: instance.imcs.populated_rows
            for instance in self.instances
        }

    def scale_out(self, sched, n_instances: int, mira: bool) -> None:
        """Add instances 2..N (:func:`repro.rac.cluster.scale_out`), once,
        before the deployment runs."""
        from repro.rac.cluster import MergedStoreView, scale_out

        self.peers = scale_out(self.standby, sched, n_instances, mira)
        self.scan_engine = ScanEngine(
            MergedStoreView([i.imcs for i in self.instances]), self.txn_table
        )
        self._aggregator = Aggregator(self.scan_engine)

    # ------------------------------------------------------------------
    def enable_inmemory(self, table_name, partition=None, columns=None):
        """Enable on every instance (each populates the blocks it homes);
        returns the enabled object ids."""
        object_ids = self.standby.enable_inmemory(
            table_name, partition, columns
        )
        table = self.catalog.table(table_name)
        for peer in self.peers:
            peer.imcs.enable(table, partition, columns)
            peer.population.schedule_all()
        return object_ids

    def __repr__(self) -> str:
        state = "mounted" if self.mounted else "lost"
        return (
            f"StandbyMember({self.name!r}, {state}, "
            f"scn={self.published_scn}, sessions={self.active_sessions})"
        )


__all__ = ["StandbyMember"]
