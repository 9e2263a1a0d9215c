"""repro: Oracle Database In-Memory on Active Data Guard, reproduced.

A from-scratch implementation of the system described in "Oracle Database
In-Memory on Active Data Guard: Real-time Analytics on a Standby Database"
(Pendse et al., ICDE 2020), built as a deterministic, laptop-scale Python
database stack.

Start here::

    from repro.db import Deployment, TableDef, ColumnDef, InMemoryService
    from repro.imcs import Predicate

    deployment = Deployment.build()
    deployment.create_table(TableDef("T", (ColumnDef.number("id"),)))
    ...

Package layout (see DESIGN.md for the full inventory):

- :mod:`repro.db` -- public façades: Deployment, PrimaryDatabase,
  StandbyDatabase, sessions/services, the mini SQL dialect.
- :mod:`repro.imcs` -- the In-Memory Column Store: IMCUs, SMUs,
  population, the scan engine, expressions, aggregation.
- :mod:`repro.dbim_adg` -- the paper's contribution: mining, the IM-ADG
  Journal and Commit Table, invalidation flush.
- :mod:`repro.adg` -- parallel redo apply, QuerySCN, recovery coordinator.
- :mod:`repro.rac` -- SIRA standby clusters and MIRA (multi-instance
  redo apply).
- :mod:`repro.rowstore`, :mod:`repro.txn`, :mod:`repro.redo` -- the
  row-format substrate: blocks, MVCC/consistent read, transactions, redo.
- :mod:`repro.workload`, :mod:`repro.obs`, :mod:`repro.sim` -- the
  OLTAP benchmark kit, the one metrics surface (registry, redo-lifecycle
  tracer, text rendering) and the deterministic discrete-event scheduler
  everything runs on.
"""

__version__ = "1.0.0"

__all__ = [
    "adg",
    "common",
    "db",
    "dbim_adg",
    "imcs",
    "rac",
    "redo",
    "rowstore",
    "sim",
    "txn",
    "workload",
]
