"""Section-V feature APIs shared by the primary and standby façades.

Join groups and the aggregation push-down are *derived*, redo-less
structures, so each database side manages its own instances of them;
this mixin provides the identical management surface on both
:class:`~repro.db.primary.PrimaryDatabase` and
:class:`~repro.db.standby.StandbyDatabase`.  The host class supplies
``catalog``, ``imcs``, ``population``, ``scan_engine`` and
``_query_snapshot()``.
"""

from __future__ import annotations

from typing import Optional

from repro.common.scn import SCN
from repro.imcs.aggregate import AggregateResult, AggregateSpec, Aggregator
from repro.imcs.join_groups import (
    JoinExecutor,
    JoinGroupMember,
    JoinGroupRegistry,
    JoinResult,
)
from repro.imcs.scan import Predicate


class InMemoryFeaturesMixin:
    """Join groups + aggregation push-down for one database side."""

    def _init_features(self) -> None:
        self.join_groups = JoinGroupRegistry()
        self._join_executor = JoinExecutor(self.scan_engine, self.join_groups)
        self._aggregator = Aggregator(self.scan_engine)

    def _query_snapshot(self) -> SCN:
        raise NotImplementedError

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
