"""Aggregation push-down (paper, section V).

"Novel formats and techniques used by DBIM like in-memory storage indexes,
aggregation push-down are extended seamlessly to ADG."

Instead of materialising matching rows and folding them in Python, the
aggregator evaluates COUNT/SUM/AVG/MIN/MAX *in the encoded domain*: every
CU answers ``stats_for_positions`` (``(count, total, min, max)``)
over the SMU-valid + predicate-matching positions -- numeric columns fold
their float vector, dictionary/RLE columns fold codes and run lengths and
decode only the winning min/max codes.  Row-store rows fold from their
tail image's column vectors after every unit's partial, in scan order, as
the rows one at a time would: SUM as one sequential float sum, MIN/MAX as
the rows' own objects.
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

    def merge_rows(self, matches: list) -> None:
        """Fold one column's row-store matches, ``(TailColumn, positions)``
        in scan order, as Python would fold their values left to right:
        ``total`` is a float sum (the order is part of the answer), and
        MIN/MAX keep the first of equal values and are a NaN only when one
        comes first."""
        present = [
            (column, positions[~column.nulls[positions]]
             if column.any_null else positions)
            for column, positions in matches
        ]
        present = [(column, at) for column, at in present if at.size]
        if not present:
            return
        if present[0][0].is_number:
            data = np.concatenate([column.data[at] for column, at in present])
            self.count += data.size
            self.total = float(
                np.add.accumulate(np.concatenate(([self.total], data)))[-1]
            )
            first_nan = bool(np.isnan(data[0]))
            low = _pick(present, 0 if first_nan else int(np.nanargmin(data)))
            high = _pick(present, 0 if first_nan else int(np.nanargmax(data)))
        else:
            values = [
                value for column, at in present
                for value in map(column.values.__getitem__, at.tolist())
            ]
            self.count += len(values)
            numbers = [v for v in values if isinstance(v, (int, float))]
            if numbers:
                self.total = float(np.add.accumulate(
                    np.array([self.total, *numbers], dtype=np.float64)
                )[-1])
            low, high = min(values), max(values)
        if self.minimum is None or low < self.minimum:
            self.minimum = low
        if self.maximum is None or high > self.maximum:
            self.maximum = high


def _pick(present: list, i: int) -> object:
    """The row object at position ``i`` of the concatenated matches."""
    for column, at in present:
        if i < at.size:
            return column.values[int(at[i])]
        i -= at.size
    raise IndexError(i)


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
        # matches: valid IMCU positions aggregate in the encoded domain as
        # the scan goes, row-store ones are folded from their tail images
        # after it, in scan order.
        tails: list = []
        scan = self.scan_engine.scan(
            table, snapshot_scn, predicates,
            columns=columns or None, partitions=partitions,
            on_imcu_matches=self._vector_hook(
                columns, accumulators, row_count, result
            ),
            on_tail_matches=lambda image, positions: tails.append(
                (image, positions)
            ),
        )
        result.stats = scan.stats
        row_count.count += sum(positions.size for __, positions in tails)
        for column in columns:
            accumulators[column].merge_rows([
                (image.column(column), positions)
                for image, positions in tails
            ])

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
