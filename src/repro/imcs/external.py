"""In-Memory External Tables (paper, section V).

"Data from external sources like Hadoop can be enabled for population in
the IMCS using the In-Memory External Tables feature."

An external table has a schema but no row-store segment: its rows come
from an external *source* (any callable returning an iterable of tuples --
standing in for HDFS files, CSVs, object storage).  Population reads the
source once and builds IMCUs directly; there is no redo, no DML and no
SMU reconciliation -- external data is read-only and refreshed only by an
explicit repopulate.

Because nothing replicates, each database (primary or standby) populates
its external tables locally, which is exactly how the feature reaches the
standby in the paper: the same external source is visible from both sites.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.common.errors import InvalidStateError
from repro.common.ids import ObjectId, TenantId
from repro.imcs.compression import ColumnCU, encode_rows, row_matrix
from repro.imcs.scan import (
    IMCS_COST_PER_ROW,
    Predicate,
    ScanResult,
)
from repro.rowstore.values import ColumnType, Schema

#: Simulated seconds to fetch one row from the external source.
EXTERNAL_FETCH_COST_PER_ROW = 5e-6

RowSource = Callable[[], Iterable[tuple]]


class ExternalIMCU:
    """A columnar unit holding external rows (no DBAs, no SMU)."""

    def __init__(self, columns: dict[str, ColumnCU], n_rows: int) -> None:
        self._columns = columns
        self.n_rows = n_rows

    def column(self, name: str) -> ColumnCU:
        return self._columns[name]

    def has_column(self, name: str) -> bool:
        return name in self._columns

    @property
    def memory_bytes(self) -> int:
        return sum(cu.memory_bytes for cu in self._columns.values())

    def project_rows(self, positions: np.ndarray, names: list[str]) -> list[tuple]:
        if len(positions) == 0:
            return []
        columns = [self._columns[n].take(positions) for n in names]
        if len(columns) == 1:
            return [(value,) for value in columns[0]]
        return list(zip(*columns))


class ExternalTable:
    """An IMCS-only table fed from an external source."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        source: RowSource,
        object_id: ObjectId = 0,
        tenant: TenantId = 0,
        chunk_rows: int = 4096,
    ) -> None:
        self.name = name
        self.schema = schema
        self.source = source
        self.object_id = object_id
        self.tenant = tenant
        self.chunk_rows = chunk_rows
        self._units: list[ExternalIMCU] = []
        self.populated = False
        self.populations = 0
        self.last_population_cost = 0.0

    # ------------------------------------------------------------------
    def populate(self) -> float:
        """(Re)load the source into columnar units; returns the simulated
        cost.  Rows are validated against the schema as they stream in."""
        units: list[ExternalIMCU] = []
        buffer: list[tuple] = []
        n_rows = 0
        schema = self.schema
        names = [column.name for column in schema.columns]
        specs = [
            (i, column.ctype is ColumnType.NUMBER, None)
            for i, column in enumerate(schema.columns)
        ]

        def flush() -> None:
            if not buffer:
                return
            cus = encode_rows(row_matrix(buffer, schema.arity), specs)
            units.append(ExternalIMCU(dict(zip(names, cus)), len(buffer)))
            buffer.clear()

        for row in self.source():
            self.schema.validate_row(row)
            buffer.append(row)
            n_rows += 1
            if len(buffer) >= self.chunk_rows:
                flush()
        flush()
        self._units = units
        self.populated = True
        self.populations += 1
        self.last_population_cost = EXTERNAL_FETCH_COST_PER_ROW * n_rows
        return self.last_population_cost

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return sum(unit.n_rows for unit in self._units)

    @property
    def memory_bytes(self) -> int:
        return sum(unit.memory_bytes for unit in self._units)

    def scan(
        self,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
    ) -> ScanResult:
        """Columnar scan over the populated units."""
        if not self.populated:
            raise InvalidStateError(
                f"external table {self.name!r} is not populated"
            )
        predicates = predicates or []
        names = columns or [c.name for c in self.schema.live_columns]
        result = ScanResult()
        for unit in self._units:
            mask = np.ones(unit.n_rows, dtype=bool)
            for predicate in predicates:
                cu = unit.column(predicate.column)
                mask &= _eval_on_cu(predicate, cu)
            positions = np.flatnonzero(mask)
            result.rows.extend(unit.project_rows(positions, names))
            result.stats.imcs_rows += unit.n_rows
            result.stats.imcus_used += 1
            result.stats.cost_seconds += IMCS_COST_PER_ROW * unit.n_rows
        return result


def _eval_on_cu(predicate: Predicate, cu: ColumnCU) -> np.ndarray:
    """Vectorised predicate evaluation against a bare column CU."""
    op = predicate.op
    if op == "=":
        return cu.eq_mask(predicate.value)
    if op == "!=":
        return ~cu.eq_mask(predicate.value) & ~cu.null_mask()
    if op == "<":
        return cu.range_mask(None, predicate.value, hi_inclusive=False)
    if op == "<=":
        return cu.range_mask(None, predicate.value)
    if op == ">":
        return cu.range_mask(predicate.value, None, lo_inclusive=False)
    if op == ">=":
        return cu.range_mask(predicate.value, None)
    if op == "between":
        return cu.range_mask(predicate.value, predicate.value2)
    if op == "is_null":
        return cu.null_mask()
    if op == "is_not_null":
        return ~cu.null_mask()
    raise ValueError(f"unknown predicate op {op!r}")
