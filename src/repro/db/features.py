"""The database core both roles stand on.

A primary and a standby are one :class:`Database` in two roles.
:meth:`Database._mount` builds the core -- block store, buffer cache,
catalog, transaction table and IMCS -- or takes those five from a
``mounted`` database (failover activation), then builds the engines over
them.  The read side, in-memory management and the section-V features
(In-Memory Expressions, aggregation push-down: derived, redo-less) are
defined here once, with an equi-join keyed by value.  The role supplies
``config``, ``node``, ``actor_prefix``, ``_query_snapshot()`` (the
primary's current SCN, the standby's QuerySCN) and ``_capture_snapshot()``
(population's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.imcs.aggregate import AggregateResult, AggregateSpec, Aggregator
from repro.imcs.population import PopulationEngine
from repro.imcs.scan import Predicate, ScanEngine, ScanResult
from repro.imcs.store import InMemoryColumnStore
from repro.rowstore.buffer_cache import BufferCache
from repro.rowstore.segment import BlockStore
from repro.rowstore.undo_retention import UndoRetentionManager
from repro.sim.scheduler import Actor, ActorOwner, Scheduler
from repro.txn.table import TransactionTable
from repro.db.catalog import Catalog


@dataclass(slots=True)
class JoinResult:
    """An equi-join's output tuples, ``columns_a + columns_b``."""

    rows: list[tuple]


class Database(ActorOwner):
    """One database's core and its role-independent surface."""

    #: Prefix of the actors this database names (``<prefix>-undo-retention``).
    actor_prefix: str

    def _mount(self, mounted: Optional["Database"] = None) -> None:
        """Build the core, or mount ``mounted``'s; then the engines."""
        if mounted is None:
            self.block_store = BlockStore()
            self.buffer_cache = BufferCache()
            self.catalog = Catalog(self.block_store, self.buffer_cache)
            self.txn_table = TransactionTable()
            self.imcs = InMemoryColumnStore()
        else:
            self.block_store = mounted.block_store
            self.buffer_cache = mounted.buffer_cache
            self.catalog = mounted.catalog
            self.txn_table = mounted.txn_table
            self.imcs = mounted.imcs
        self.population = PopulationEngine(
            self.imcs,
            self.txn_table,
            snapshot_capture=self._capture_snapshot,
            config=self.config.imcs,
        )
        self.scan_engine = ScanEngine(self.imcs, self.txn_table)
        self._aggregator = Aggregator(self.scan_engine)
        #: The actors this database scheduled (ActorOwner).
        self._actors: list[Actor] = []

    def attach_undo_retention(self, sched: Scheduler) -> None:
        """Bound version-chain growth on this database's row store."""
        self.attach_actor(sched, UndoRetentionManager(
            self.block_store,
            self.config.rowstore.undo_retention_versions,
            name=f"{self.actor_prefix}-undo-retention",
            node=self.node,
        ))

    # ------------------------------------------------------------------
    # in-memory enablement
    # ------------------------------------------------------------------
    def enable_inmemory(
        self,
        table_name: str,
        partition: Optional[str] = None,
        columns: Optional[list[str]] = None,
    ) -> list[int]:
        """Enable object(s) for population here; returns the enabled
        object ids."""
        table = self.catalog.table(table_name)
        self.imcs.enable(table, partition, columns)
        names = [partition] if partition else list(table.partitions)
        object_ids = [table.partition(n).object_id for n in names]
        self.population.schedule_all()
        return object_ids

    def add_inmemory_expression(self, table_name: str, expression) -> None:
        """Register an In-Memory Expression on every enabled partition of
        a table (section V: "In-Memory Expressions are now supported on
        the Standby database"); IMCUs repopulate with it included."""
        table = self.catalog.table(table_name)
        for object_id in table.object_ids:
            if self.imcs.is_enabled(object_id):
                self.imcs.add_expression(object_id, expression)
        self.population.schedule_all()

    # ------------------------------------------------------------------
    # queries (at the role's query snapshot)
    # ------------------------------------------------------------------
    def query(
        self,
        table_name: str,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
    ) -> ScanResult:
        """Scan through this database's IMCS at its query snapshot."""
        table = self.catalog.table(table_name)
        return self.scan_engine.scan(
            table, self._query_snapshot(), predicates, columns, partitions
        )

    def index_fetch(self, table_name: str, column: str, key):
        table = self.catalog.table(table_name)
        return table.index_fetch(
            column, key, self._query_snapshot(), self.txn_table
        )

    def join(
        self,
        table_a: str,
        column_a: str,
        table_b: str,
        column_b: str,
        predicates_a: Optional[list[Predicate]] = None,
        predicates_b: Optional[list[Predicate]] = None,
        columns_a: Optional[list[str]] = None,
        columns_b: Optional[list[str]] = None,
    ) -> JoinResult:
        """Inner equi-join at this database's query snapshot: a hash join
        keyed by value, ``table_a`` the build side, ``table_b`` the probe
        side.  Each side is one scan; a NULL key never joins."""
        snapshot = self._query_snapshot()
        by_value: dict[object, list[tuple]] = {}
        for key, row in self._join_side(
            table_a, column_a, predicates_a, columns_a, snapshot
        ):
            by_value.setdefault(key, []).append(row)
        return JoinResult([
            row_a + row_b
            for key, row_b in self._join_side(
                table_b, column_b, predicates_b, columns_b, snapshot
            )
            for row_a in by_value.get(key, ())
        ])

    def _join_side(self, table_name, column, predicates, columns, snapshot):
        """One side's ``(key, projected row)`` pairs, NULL keys left out."""
        table = self.catalog.table(table_name)
        names = columns or [c.name for c in table.schema.live_columns]
        wanted = list(dict.fromkeys([column] + names))
        scan = self.scan_engine.scan(table, snapshot, predicates, wanted)
        key = wanted.index(column)
        project = [wanted.index(n) for n in names]
        return [
            (row[key], tuple(row[i] for i in project))
            for row in scan.rows
            if row[key] is not None
        ]

    # ------------------------------------------------------------------
    # aggregation push-down (section V)
    # ------------------------------------------------------------------
    def aggregate(
        self,
        table_name: str,
        specs: list[AggregateSpec],
        predicates: Optional[list[Predicate]] = None,
        partitions: Optional[list[str]] = None,
    ) -> AggregateResult:
        """COUNT/SUM/AVG/MIN/MAX evaluated inside the columnar scan."""
        return self._aggregator.aggregate(
            self.catalog.table(table_name),
            self._query_snapshot(),
            specs,
            predicates,
            partitions,
        )
