"""The database core both roles stand on.

A primary and a standby are one :class:`Database` in two roles.
:meth:`Database._mount` builds the core -- block store, buffer cache,
catalog, transaction table, IMCS and join-group registry -- or takes those
six from a ``mounted`` database (failover activation), then builds the
engines over them.  The read side, in-memory management and the section-V
features (join groups, aggregation push-down: derived, redo-less) are
defined here once.  The role supplies ``config``, ``node``,
``actor_prefix``, ``_query_snapshot()`` (the primary's current SCN, the
standby's QuerySCN) and ``_capture_snapshot(owner)`` (population's).
"""

from __future__ import annotations

from typing import Optional

from repro.imcs.aggregate import AggregateResult, AggregateSpec, Aggregator
from repro.imcs.join_groups import (
    JoinExecutor,
    JoinGroupMember,
    JoinGroupRegistry,
    JoinResult,
)
from repro.imcs.population import PopulationEngine
from repro.imcs.scan import Predicate, ScanEngine, ScanResult
from repro.imcs.store import InMemoryColumnStore
from repro.rowstore.buffer_cache import BufferCache
from repro.rowstore.segment import BlockStore
from repro.rowstore.undo_retention import UndoRetentionManager
from repro.sim.scheduler import Actor, ActorOwner, Scheduler
from repro.txn.table import TransactionTable
from repro.db.catalog import Catalog


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
            self.imcs = InMemoryColumnStore(self.config.imcs.pool_size_bytes)
            self.join_groups = JoinGroupRegistry()
        else:
            self.block_store = mounted.block_store
            self.buffer_cache = mounted.buffer_cache
            self.catalog = mounted.catalog
            self.txn_table = mounted.txn_table
            self.imcs = mounted.imcs
            self.join_groups = mounted.join_groups
        self.population = PopulationEngine(
            self.imcs,
            self.txn_table,
            snapshot_capture=self._capture_snapshot,
            config=self.config.imcs,
        )
        self.scan_engine = ScanEngine(self.imcs, self.txn_table)
        self._join_executor = JoinExecutor(self.scan_engine, self.join_groups)
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
        priority: int = 0,
    ) -> list[int]:
        """Enable object(s) for population here; returns the enabled
        object ids."""
        table = self.catalog.table(table_name)
        self.imcs.enable(table, partition, columns, priority)
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

    # ------------------------------------------------------------------
    # join groups
    # ------------------------------------------------------------------
    def create_join_group(
        self, name: str, members: list[tuple[str, str]]
    ) -> None:
        """CREATE INMEMORY JOIN GROUP name (t1(c1), t2(c2), ...).

        Every member column of an in-memory-enabled object switches to the
        group's shared dictionary (its IMCUs repopulate).
        """
        group = self.join_groups.create(
            name, [JoinGroupMember(t, c) for t, c in members]
        )
        for table_name, column in members:
            table = self.catalog.table(table_name)
            table.schema.column_index(column)  # validate
            for object_id in table.object_ids:
                if self.imcs.is_enabled(object_id):
                    self.imcs.set_join_dictionary(
                        object_id, column, group.dictionary
                    )
        self.population.schedule_all()

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
        """Inner equi-join at this database's query snapshot."""
        return self._join_executor.join(
            self.catalog.table(table_a),
            column_a,
            self.catalog.table(table_b),
            column_b,
            self._query_snapshot(),
            predicates_a,
            predicates_b,
            columns_a,
            columns_b,
        )

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
