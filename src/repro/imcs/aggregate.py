"""Aggregation push-down (paper, section V).

"Novel formats and techniques used by DBIM like in-memory storage indexes,
aggregation push-down are extended seamlessly to ADG."

Instead of materialising matching rows and folding them in Python, the
aggregator evaluates COUNT/SUM/AVG/MIN/MAX *in the encoded domain*: every
CU answers ``stats_for_positions`` (``(count, total, min, max)``)
over the SMU-valid + predicate-matching positions -- numeric columns fold
their float vector, dictionary/RLE columns fold codes and run lengths and
decode only the winning min/max codes -- and only reconcile rows fall back
to row-at-a-time accumulation.  The partial states combine associatively
across IMCUs and the row-store tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.common.scn import SCN
from repro.imcs.scan import Predicate, ScanEngine, ScanStats
from repro.rowstore.table import Table


@dataclass(frozen=True, slots=True)
class AggregateSpec:
    """One aggregate in the select list: fn over a column (None = *)."""

    fn: str  # 'count' | 'sum' | 'avg' | 'min' | 'max'
    column: Optional[str] = None

    def __post_init__(self) -> None:
        if self.fn not in ("count", "sum", "avg", "min", "max"):
            raise ValueError(f"unknown aggregate {self.fn!r}")
        if self.fn != "count" and self.column is None:
            raise ValueError(f"{self.fn} needs a column")


@dataclass(slots=True)
class _Accumulator:
    """Associative partial state for one aggregate."""

    count: int = 0
    total: float = 0.0
    minimum: object = None
    maximum: object = None

    def merge_encoded(
        self, count: int, total: float, minimum: object, maximum: object
    ) -> None:
        """Fold one CU's encoded-domain partial (stats_for_positions)."""
        if count == 0:
            return
        self.count += count
        self.total += total
        if minimum is not None:
            self.minimum = (
                minimum if self.minimum is None else min(self.minimum, minimum)
            )
        if maximum is not None:
            self.maximum = (
                maximum if self.maximum is None else max(self.maximum, maximum)
            )

    def add_values(self, values: list) -> None:
        """Fold one column of reconcile rows, left to right (``total`` is
        a float sum: the order is part of the answer)."""
        present = [value for value in values if value is not None]
        if not present:
            return
        self.count += len(present)
        total = self.total
        for value in present:
            if isinstance(value, (int, float)):
                total += value
        self.total = total
        low, high = min(present), max(present)
        if self.minimum is None or low < self.minimum:
            self.minimum = low
        if self.maximum is None or high > self.maximum:
            self.maximum = high


@dataclass(slots=True)
class AggregateResult:
    values: list = field(default_factory=list)
    stats: ScanStats = field(default_factory=ScanStats)
    #: rows aggregated straight from column vectors (the pushed-down part)
    pushed_down_rows: int = 0


class Aggregator:
    """Pushes aggregates into the columnar scan."""

    def __init__(self, scan_engine: ScanEngine) -> None:
        self.scan_engine = scan_engine

    def aggregate(
        self,
        table: Table,
        snapshot_scn: SCN,
        specs: list[AggregateSpec],
        predicates: Optional[list[Predicate]] = None,
        partitions: Optional[list[str]] = None,
    ) -> AggregateResult:
        predicates = predicates or []
        columns = sorted(
            {s.column for s in specs if s.column is not None}
        )
        accumulators = {c: _Accumulator() for c in columns}
        row_count = _Accumulator()  # COUNT(*) over matching rows
        result = AggregateResult()

        # Reuse the scan engine's coverage walk, but intercept per-IMCU:
        # matching valid positions aggregate vectorially; reconcile rows
        # come back as tuples and accumulate one at a time.
        scan = self.scan_engine.scan(
            table, snapshot_scn, predicates,
            columns=columns or None, partitions=partitions,
            on_imcu_matches=self._vector_hook(
                columns, accumulators, row_count, result
            ),
        )
        result.stats = scan.stats
        # scan.rows now holds only the reconcile-path rows (the hook
        # swallowed IMCU-resident matches)
        row_count.count += len(scan.rows)
        for i, column in enumerate(columns):
            accumulators[column].add_values([row[i] for row in scan.rows])

        for spec in specs:
            if spec.fn == "count":
                result.values.append(row_count.count)
                continue
            acc = accumulators[spec.column]
            if spec.fn == "sum":
                result.values.append(acc.total if acc.count else None)
            elif spec.fn == "avg":
                result.values.append(
                    acc.total / acc.count if acc.count else None
                )
            elif spec.fn == "min":
                result.values.append(acc.minimum)
            elif spec.fn == "max":
                result.values.append(acc.maximum)
        return result

    def _vector_hook(self, columns, accumulators, row_count, result):
        def hook(imcu, positions: np.ndarray) -> bool:
            """Aggregate matching IMCU positions; True = handled (the scan
            must not materialise these rows)."""
            if positions.size == 0:
                return True
            row_count.count += int(positions.size)
            result.pushed_down_rows += int(positions.size)
            for column in columns:
                # encoded-domain fold: codes / run lengths, no decode
                accumulators[column].merge_encoded(
                    *imcu.column(column).stats_for_positions(positions)
                )
            return True

        return hook
