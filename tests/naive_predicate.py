"""Row-at-a-time predicate evaluation: the reference for the scan kernels.

The scan engine evaluates a :class:`~repro.imcs.scan.Predicate` two ways --
as a vectorised mask over an IMCU's CUs and as the closure
``Predicate.row_matcher`` compiles for reconcile rows.  This module is the
third, obvious way, dispatching on the op for every value, which the
reference scans in the property suites filter with.
"""

from __future__ import annotations

from repro.imcs.scan import Predicate
from repro.rowstore.values import Schema


def matches(predicate: Predicate, v: object) -> bool:
    """Evaluate ``predicate`` against one already-resolved value."""
    op, value = predicate.op, predicate.value
    if op == "is_null":
        return v is None
    if op == "is_not_null":
        return v is not None
    if v is None:
        return False
    if op == "=":
        return v == value
    if op == "!=":
        return v != value
    if op == "<":
        return v < value
    if op == "<=":
        return v <= value
    if op == ">":
        return v > value
    if op == ">=":
        return v >= value
    if op == "between":
        return value <= v <= predicate.value2
    raise ValueError(f"unknown predicate op {op!r}")


def eval_row(predicate: Predicate, values: tuple, schema: Schema) -> bool:
    """Evaluate ``predicate`` against one row-store row."""
    return matches(predicate, values[schema.column_index(predicate.column)])
