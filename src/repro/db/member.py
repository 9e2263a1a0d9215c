"""One standby member of a deployment.

A :class:`StandbyMember` wraps a full :class:`StandbyDatabase` pipeline
with the serving-side state the deployment and the router need: what was
attached to it (SIRA cluster, query service, CDC egress) and the active
routed-session count (the router's load signal).
"""

from __future__ import annotations

from repro.common.scn import SCN
from repro.db.standby import StandbyDatabase


class StandbyMember:
    """A standby database inside a deployment, named after its node."""

    def __init__(self, standby: StandbyDatabase) -> None:
        self.name = standby.node.name
        self.standby = standby
        #: Attached by ``deployment.add_standby_cluster`` (SIRA scale-out).
        self.cluster = None
        #: Attached by ``deployment.start_query_service``.
        self.query_service = None
        #: Attached by ``deployment.start_cdc``.
        self.cdc = None
        #: Routed sessions currently bound here (kept by the router).
        self.active_sessions = 0

    # ------------------------------------------------------------------
    @property
    def mounted(self) -> bool:
        """False once the member is lost (``deployment.lose_standby``) or
        failed over: its pipeline is dismounted and no session may route
        here."""
        return self.standby.mounted

    @property
    def published_scn(self) -> SCN:
        """The member's published QuerySCN — the consistency point every
        query on this member runs at."""
        return self.standby.query_scn.value

    # ------------------------------------------------------------------
    def query(self, table_name, predicates=None, columns=None,
              partitions=None):
        """Direct (synchronous) scan on this member, bypassing the
        query service — test/diagnostic convenience."""
        return self.standby.query(table_name, predicates, columns, partitions)

    def __repr__(self) -> str:
        state = "mounted" if self.mounted else "lost"
        return (
            f"StandbyMember({self.name!r}, {state}, "
            f"scn={self.published_scn}, sessions={self.active_sessions})"
        )


__all__ = ["StandbyMember"]
