"""The golden invariant (DESIGN section 4) as the benchmark's correctness
gate: a standby query at a published QuerySCN must return what the
primary's consistent read returns at that SCN.

The reference is ``primary.scan_engine.scan(table, scn)``: the table is
in-memory only on the standby, so the primary answers from its row store
through Consistent Read -- a different code path from the columnar scan
under test.  One unfiltered read per checked SCN serves every query kind
checked there (a read per kind cost five times as much and the CR walk,
not the filter, is what it spent it on); the filters, projections and
aggregates are applied here, in plain Python.
"""

from __future__ import annotations

from .loadgen import Query


class PrimaryRead:
    """Every row of one table as the primary sees it at one SCN."""

    def __init__(self, primary, table_name: str, scn: int) -> None:
        table = primary.catalog.table(table_name)
        self.columns = [c.name for c in table.schema.live_columns]
        self.rows = primary.scan_engine.scan(table, scn).rows

    def expected(self, query: Query):
        """What ``query`` must answer: rows, or the aggregate values."""
        rows = self.rows
        for predicate in query.predicates:
            at = self.columns.index(predicate.column)
            if predicate.op == "=":
                rows = [r for r in rows if r[at] == predicate.value]
            elif predicate.op == "between":
                low, high = predicate.value, predicate.value2
                rows = [
                    r for r in rows
                    if r[at] is not None and low <= r[at] <= high
                ]
            else:
                raise ValueError(f"no reference for predicate {predicate.op!r}")
        if query.aggregates:
            return [self._aggregate(spec, rows) for spec in query.aggregates]
        if query.columns:
            picked = [self.columns.index(name) for name in query.columns]
            rows = [tuple(r[at] for at in picked) for r in rows]
        return rows

    def _aggregate(self, spec, rows):
        if spec.fn == "count":
            return len(rows)
        at = self.columns.index(spec.column)
        column = [r[at] for r in rows if r[at] is not None]
        if not column:
            return None
        if spec.fn == "sum":
            return float(sum(column))
        if spec.fn == "min":
            return min(column)
        if spec.fn == "max":
            return max(column)
        raise ValueError(f"no reference for aggregate {spec.fn!r}")

    def matches(self, query: Query, answer) -> bool:
        """Whether the standby's ``answer`` (computed at this read's SCN)
        equals the primary's.  Row order is not part of the contract, so
        rows compare as multisets."""
        expected = self.expected(query)
        if query.aggregates:
            return list(answer) == expected
        return sorted(answer) == sorted(expected)
