"""Database façades: the public API of the reproduction.

* :class:`~repro.db.deployment.Deployment` builds a primary cluster and
  N >= 1 physical standbys (:class:`~repro.db.member.StandbyMember`) wired
  together by redo shipping, on one deterministic scheduler -- the
  starting point for every example and benchmark.
* :class:`~repro.db.primary.PrimaryDatabase` runs transactions (DML + DDL)
  and generates redo across one or more RAC instances.
* :class:`~repro.db.standby.StandbyDatabase` applies redo with parallel
  media recovery and serves read-only queries at the published QuerySCN,
  with DBIM-on-ADG maintaining its In-Memory Column Store.
* :mod:`~repro.db.sql` provides the small SQL dialect used by the paper's
  evaluation queries (Table 1).
* :mod:`~repro.db.services` implements the services-based workload routing
  of the capacity-expansion deployment (Fig. 2); sessions connect through
  :class:`repro.fleet.FleetRouter`.
"""

from repro.db.schema_def import ColumnDef, PartitionScheme, TableDef
from repro.db.catalog import Catalog
from repro.db.primary import PrimaryDatabase, PrimaryInstance
from repro.db.standby import StandbyDatabase
from repro.db.member import StandbyMember
from repro.db.deployment import Deployment, InMemoryService
from repro.db.services import Role, RouteTarget, Service, ServiceRegistry
from repro.db.failover import activate, failover, terminal_recovery
from repro.db.sql import parse_query, ParsedQuery

__all__ = [
    "ColumnDef",
    "PartitionScheme",
    "TableDef",
    "Catalog",
    "PrimaryDatabase",
    "PrimaryInstance",
    "StandbyDatabase",
    "StandbyMember",
    "Deployment",
    "InMemoryService",
    "Role",
    "RouteTarget",
    "Service",
    "ServiceRegistry",
    "activate",
    "failover",
    "terminal_recovery",
    "parse_query",
    "ParsedQuery",
]
