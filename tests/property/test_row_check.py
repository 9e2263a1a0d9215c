"""Property: the compiled row check accepts exactly what the column checks do.

``Schema.validate_row`` walks a tuple compiled once per schema (and again
by ``drop_column``) with an exact-type fast path for ``float``, ``str`` and
``int`` within +-2**53.  The oracle is the per-column check it replaced: a
row is refused exactly when its arity differs from the schema's or some
live column's :meth:`Column.validate` refuses its value.  Values are drawn
where the fast path and the fallback part: ``bool``, numpy scalars, the
2**53 edges, NaN and infinities, a ``str`` subclass and NULLs in NOT NULL
columns, on schemas with dropped columns.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.rowstore import Column, ColumnType, Schema


class Name(str):
    """A ``str`` subclass: storable, but not an exact ``str``."""


EDGES = [
    True, False, 2**53, 2**53 + 1, -(2**53), -(2**53) - 1, 2**53 - 1,
    math.nan, math.inf, -math.inf, -0.0, np.float64(1.5), np.int64(3),
    np.float32(2.0), np.bool_(True), np.str_("s"), Name("n"), b"x", 1j,
    None, "", "x", 0, 0.0,
]
VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
)
COLUMNS = st.lists(
    st.tuples(st.sampled_from(list(ColumnType)), st.booleans(), st.booleans()),
    min_size=1,
    max_size=6,
)


def build(columns) -> Schema:
    schema = Schema([
        Column(f"c{i}", ctype, nullable)
        for i, (ctype, nullable, __) in enumerate(columns)
    ])
    for i, (__, __, dropped) in enumerate(columns):
        if dropped:
            schema.drop_column(f"c{i}")
    return schema


def accepts(schema: Schema, row: tuple) -> bool:
    try:
        schema.validate_row(row)
    except ValueError:
        return False
    return True


def refused(schema: Schema, row: tuple) -> bool:
    if len(row) != len(schema.columns):
        return True
    return any(
        not col.validate(value)
        for col, value in zip(schema.columns, row)
        if not schema.is_dropped(col.name)
    )


@settings(max_examples=300, deadline=None)
@given(
    columns=COLUMNS,
    cells=st.lists(VALUES, min_size=1, max_size=7),
    exact=st.booleans(),
)
@example(  # the fast path must not take a bool for an int
    columns=[(ColumnType.NUMBER, True, False)], cells=[True], exact=True,
)
@example(  # 2**53 is exact in float64; one more is not
    columns=[(ColumnType.NUMBER, True, False)], cells=[2**53 + 1], exact=True,
)
@example(
    columns=[(ColumnType.NUMBER, True, False)], cells=[-(2**53)], exact=True,
)
@example(  # a dropped column's cell is not checked
    columns=[(ColumnType.NUMBER, False, True),
             (ColumnType.VARCHAR2, True, False)],
    cells=["not a number", "x"], exact=True,
)
def test_validate_row_refuses_what_a_column_refuses(columns, cells, exact):
    schema = build(columns)
    row = tuple(cells[: len(columns)] if exact else cells)
    assert (not accepts(schema, row)) == refused(schema, row)


@given(columns=COLUMNS, drop=st.integers(0, 5), data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_drop_recompiles_the_check(columns, drop, data):
    """Validated, dropped, validated again: the second check skips the
    dropped column and still checks every other."""
    schema = build(columns)
    live = [c.name for c in schema.live_columns]
    assume(live)
    row = tuple(data.draw(VALUES) for __ in schema.columns)
    assert (not accepts(schema, row)) == refused(schema, row)
    schema.drop_column(live[drop % len(live)])
    assert (not accepts(schema, row)) == refused(schema, row)


@pytest.mark.parametrize("value, ok", [
    (1.5, True), (2**53, True), (2**53 + 1, False), (True, False),
    ("1", False), (None, False),
])
def test_an_update_checks_its_value_by_the_same_entry(value, ok):
    schema = Schema([
        Column("id", ColumnType.NUMBER, nullable=False),
        Column("n1", ColumnType.NUMBER, nullable=False),
    ])
    if ok:
        assert schema.validate_value("n1", value) == 1
    else:
        with pytest.raises(ValueError):
            schema.validate_value("n1", value)
