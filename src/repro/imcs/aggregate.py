"""Aggregation push-down (paper, section V).

"Novel formats and techniques used by DBIM like in-memory storage indexes,
aggregation push-down are extended seamlessly to ADG."

Instead of materialising matching rows and folding them in Python, the
aggregator evaluates COUNT/SUM/AVG/MIN/MAX *in the encoded domain*: every
CU answers ``stats_for_positions`` (``(count, total, min, max)``)
over the SMU-valid + predicate-matching positions -- numeric columns fold
their float vector, dictionary columns fold codes and decode only the
winning min/max codes.  Row-store rows fold the same way, from their
tail image's CUs, so every path gives one answer: a NUMBER
MIN/MAX is a float, a NaN is sticky, and SUM adds each partial's numpy sum
in scan order (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.common.scn import SCN
from repro.imcs.imcu import IMCU
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
        """Fold one CU's encoded-domain partial (stats_for_positions).  A
        NaN MIN/MAX is sticky (``x != x``), so it does not depend on which
        partial came first; of equal values the first is kept."""
        if count == 0:
            return
        self.count += count
        self.total += total
        if minimum is not None and (
            self.minimum is None or minimum < self.minimum
            or minimum != minimum
        ):
            self.minimum = minimum
        if maximum is not None and (
            self.maximum is None or maximum > self.maximum
            or maximum != maximum
        ):
            self.maximum = maximum


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

        # Reuse the scan engine's coverage walk, but intercept its
        # matches: valid IMCU positions and row-store tail positions alike
        # aggregate in the encoded domain as the scan goes.
        scan = self.scan_engine.scan(
            table, snapshot_scn, predicates,
            columns=columns or None, partitions=partitions,
            on_matches=self._vector_hook(
                columns, accumulators, row_count, result
            ),
        )
        result.stats = scan.stats

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
        def hook(unit, positions: np.ndarray) -> None:
            """Aggregate the matching positions of an IMCU or a tail
            image; only an IMCU's count as pushed down."""
            row_count.count += int(positions.size)
            if isinstance(unit, IMCU):
                result.pushed_down_rows += int(positions.size)
            for column in columns:
                # encoded-domain fold: floats / codes, no decode
                accumulators[column].merge_encoded(
                    *unit.column(column).stats_for_positions(positions)
                )

        return hook
