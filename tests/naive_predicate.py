"""Row-at-a-time predicate evaluation: the reference for the scan kernels.

The scan engine evaluates a :class:`~repro.imcs.scan.Predicate` as a
vectorised mask -- over an IMCU's CUs, and over the CUs of a row-store
tail image.  This module keeps the two row-at-a-time ways:

* :func:`matches` / :func:`eval_row`, the obvious way, dispatching on the
  op for every value, which the reference scans in the property suites
  filter with;
* the closures the scan engine compiled for its row-store rows before
  they ran as columns (:func:`row_matcher`, :func:`compile_matches`,
  :func:`compile_tail`, :func:`closure_tail`): the oracle the tail kernels
  are checked against in ``tests/property/test_tail_kernels.py`` and timed
  against in ``benchmarks/bench_microbench_scan.py``.

Both read a comparison with a NULL literal as matching no row: only IS
[NOT] NULL tests NULL.
"""

from __future__ import annotations

import operator

from repro.imcs.expressions import RowResolver
from repro.imcs.scan import Predicate
from repro.rowstore.values import Schema


def matches(predicate: Predicate, v: object) -> bool:
    """Evaluate ``predicate`` against one already-resolved value."""
    op, value = predicate.op, predicate.value
    if op == "is_null":
        return v is None
    if op == "is_not_null":
        return v is not None
    if v is None or null_bound(predicate):
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


# ----------------------------------------------------------------------
# the compiled closures and the fold the row-store rows used to run
# ----------------------------------------------------------------------
def null_bound(predicate: Predicate) -> bool:
    """A comparison with a NULL literal (or a NULL BETWEEN bound)."""
    return predicate.op not in ("is_null", "is_not_null") and (
        predicate.value is None
        or (predicate.op == "between" and predicate.value2 is None)
    )


def row_matcher(predicate: Predicate):
    """Compile to a direct closure: the op is dispatched once here, not
    once per row."""
    op, value = predicate.op, predicate.value
    if null_bound(predicate):
        return lambda v: False
    if op == "=":
        return lambda v: v is not None and v == value
    if op == "!=":
        return lambda v: v is not None and v != value
    if op == "<":
        return lambda v: v is not None and v < value
    if op == "<=":
        return lambda v: v is not None and v <= value
    if op == ">":
        return lambda v: v is not None and v > value
    if op == ">=":
        return lambda v: v is not None and v >= value
    if op == "between":
        value2 = predicate.value2
        return lambda v: v is not None and value <= v <= value2
    if op == "is_null":
        return lambda v: v is None
    if op == "is_not_null":
        return lambda v: v is not None
    raise ValueError(f"unknown predicate op {op!r}")


def match_any_row(values: tuple) -> bool:
    """Predicate-free scan: every visible row matches."""
    return True


def compile_matches(predicates: list[Predicate], resolver: RowResolver):
    """One closure over a row tuple for all of ``predicates``: a column is
    a tuple index, an In-Memory Expression is evaluated against the row."""
    schema = resolver.schema
    pairs = []
    for predicate in predicates:
        if resolver.is_expression(predicate.column):
            accessor = (
                lambda values, e=resolver.expressions.get(predicate.column):
                e.evaluate(values, schema)
            )
        else:
            accessor = schema.column_index(predicate.column)
        pairs.append((accessor, row_matcher(predicate)))
    if not pairs:
        return match_any_row
    if len(pairs) == 1:
        ((accessor, match),) = pairs
        if callable(accessor):
            return lambda values: match(accessor(values))
        return lambda values, i=accessor: match(values[i])
    steps = [
        (a if callable(a) else operator.itemgetter(a), m) for a, m in pairs
    ]

    def matches_all(values):
        for accessor, match in steps:
            if not match(accessor(values)):
                return False
        return True

    return matches_all


def closure_tail(
    visible: list, predicates: list[Predicate], names: list[str],
    resolver: RowResolver,
) -> list[tuple]:
    """A tail's matching rows, projected, one closure call per row: what
    the scan engine did with a Consistent Read pass's answer."""
    return compile_tail(predicates, names, resolver)(visible)


def compile_tail(
    predicates: list[Predicate], names: list[str], resolver: RowResolver,
):
    """:func:`closure_tail` compiled once per scan, as the scan engine
    did: the projection is a C-level ``itemgetter`` unless an expression
    is named."""
    match = compile_matches(predicates, resolver)
    schema = resolver.schema
    if any(resolver.is_expression(name) for name in names):
        def project(values):
            return resolver.project(values, names)
    elif len(names) == 1:
        index = schema.column_index(names[0])

        def project(values):
            return (values[index],)
    else:
        project = operator.itemgetter(
            *[schema.column_index(name) for name in names]
        )
    return lambda visible: [
        project(values) for values in visible
        if values is not None and match(values)
    ]
