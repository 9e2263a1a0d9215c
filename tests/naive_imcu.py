"""Reference model for columnar population (the cell-at-a-time build) and
projection (one ``take`` per column, :func:`naive_project_rows`).

Until PR 17 this *was* production: ``IMCU.build`` walked every slot through
``visible_version`` into per-column Python lists, and each encoder re-walked
its list with ``np.fromiter`` over a generator.  Population now makes one
CR pass per block, lays the rows into one matrix and encodes block-wise
(DESIGN, "Columnar population"); the loops moved here unchanged, as the
oracle ``tests/property/test_population_columnar.py`` compares against.

Everything is built through the buffer constructors (``from_arrays`` /
``from_codes``) and the ``addresses=`` arrays of the
``IMCU`` constructor, so nothing here runs the code under test.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.imcs.compression import (
    NULL_CODE,
    ColumnCU,
    DictionaryCU,
    NumericCU,
)
from repro.imcs.imcu import IMCU
from repro.rowstore.values import ColumnType

from tests.naive_versions import chain_of, visible_version


def naive_numeric(values: Sequence) -> NumericCU:
    n = len(values)
    nulls = np.fromiter((v is None for v in values), dtype=bool, count=n)
    data = np.fromiter(
        (0.0 if v is None else float(v) for v in values),
        dtype=np.float64,
        count=n,
    )
    is_int = np.fromiter(
        (isinstance(v, int) for v in values), dtype=bool, count=n
    )
    return NumericCU.from_arrays(data, nulls, is_int)


def naive_dictionary(values: Sequence) -> DictionaryCU:
    distinct = sorted({v for v in values if v is not None})
    code_of = {v: i for i, v in enumerate(distinct)}
    codes = np.fromiter(
        (NULL_CODE if v is None else code_of[v] for v in values),
        dtype=np.int32,
        count=len(values),
    )
    return DictionaryCU.from_codes(codes, distinct)


def naive_encode_column(values: Sequence, is_numeric: bool) -> ColumnCU:
    if is_numeric:
        return naive_numeric(values)
    return naive_dictionary(values)


def naive_project_rows(imcu: IMCU, positions, names: list[str]) -> list[tuple]:
    """``IMCU.project_rows`` before the blocks: one bulk ``take`` per
    column, zipped into tuples -- the reference its block gathers must
    equal by ``repr``."""
    if len(positions) == 0:
        return []
    columns = [imcu.column(n).take(positions) for n in names]
    if len(columns) == 1:
        return [(value,) for value in columns[0]]
    return list(zip(*columns))


def naive_build(
    segment,
    schema,
    tenant,
    dbas,
    snapshot_scn,
    txns,
    inmemory_columns: Optional[list[str]] = None,
    expressions=None,
) -> IMCU:
    column_names = (
        inmemory_columns
        if inmemory_columns is not None
        else [c.name for c in schema.live_columns]
    )
    row_dbas: list[int] = []
    row_slots: list[int] = []
    captured_slots: dict[int, int] = {}
    raw_columns: dict[str, list] = {name: [] for name in column_names}
    indices = {name: schema.column_index(name) for name in column_names}
    expressions = list(expressions or [])
    captured_rows: list[tuple] = []
    store = segment._store
    for dba in dbas:
        block = store.get_optional(dba)
        if block is None:
            captured_slots[dba] = 0
            continue
        captured = 0
        for slot in range(block.used_slots):
            version = visible_version(chain_of(block, slot), snapshot_scn, txns)
            if version is None:
                break
            captured += 1
            if version.is_delete:
                continue
            values = version.values
            row_dbas.append(dba)
            row_slots.append(slot)
            for name in column_names:
                raw_columns[name].append(values[indices[name]])
            captured_rows.append(values)
        captured_slots[dba] = captured
    columns = {}
    for name in column_names:
        columns[name] = naive_encode_column(
            raw_columns[name],
            schema.column(name).ctype is ColumnType.NUMBER,
        )
    for expression in expressions:
        materialised = [
            expression.evaluate(values, schema) for values in captured_rows
        ]
        ctype = (
            ColumnType.NUMBER if expression.is_numeric else ColumnType.VARCHAR2
        )
        if not all(ctype.validate(value) for value in materialised):
            continue  # a value no column of its type holds: the row store's
        columns[expression.name] = naive_encode_column(
            materialised, expression.is_numeric
        )
    return IMCU(
        segment.object_id, tenant, snapshot_scn, captured_slots, columns,
        addresses=(
            np.array(row_dbas, dtype=np.int64),
            np.array(row_slots, dtype=np.int64),
        ),
    )
