"""A query gets one answer whichever path serves its rows.

Three paths are checked for each query: the primary, whose table is not
In-Memory there, so every row comes through the row store as a tail image;
a clean standby, where one IMCU answers; and a standby whose unit has half
its rows invalid, so the IMCU and its reconcile tail answer together.

* A comparison whose literal is NULL matches no row (only IS [NOT] NULL
  tests NULL), for every operator and either BETWEEN bound.
* A NUMBER MIN/MAX is a float, also over int values.
* A stored NaN makes MIN/MAX NaN, whichever partial holds it.
* An index fetch of NULL or of a key of the other kind finds no row, and
  a row with a NULL key is stored, shipped and scanned like any other.
* An int literal float64 cannot hold compares exactly, as Python compares
  it, not as the float it rounds to.
"""

from __future__ import annotations

import math

import pytest

from repro.common.config import IMCSConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.db.sql import parse_query
from repro.imcs import Predicate

from tests.db.conftest import small_config
from tests.naive_predicate import matches

#: ``T``: int-valued NUMBERs, three of them NULL, and a VARCHAR2; ``P``:
#: the NaN probe.
T_ROWS = [
    (i, None if i in (1, 4, 6) else i - 3, f"v{i % 3}") for i in range(8)
]
P_ROWS = [(i, math.nan if i == 3 else float(i)) for i in range(8)]
#: ``B``: NUMBERs at the edge of float64's exact integers.
B_ROWS = [(0, 2**53), (1, 5), (2, -2**53)]
#: Rows the half-invalid standby reconciles: -3, a NULL and the NaN among
#: them.
INVALID = (0, 1, 2, 3)
PATHS = ("primary", "clean standby", "half-invalid standby")


def deployment(invalidate: bool) -> Deployment:
    config = small_config()
    # a half-invalid unit stays as it is: no repopulation below 100%
    config.imcs = IMCSConfig(
        imcu_target_rows=64, population_workers=1,
        repopulate_invalid_fraction=1.0,
    )
    built = Deployment.build(config=config)
    built.create_table(TableDef("T", (
        ColumnDef.number("id", nullable=False), ColumnDef.number("n1"),
        ColumnDef.varchar("c1"),
    ), rows_per_block=8, indexes=("id",)))
    for name in ("P", "B"):
        built.create_table(TableDef(name, (
            ColumnDef.number("id", nullable=False), ColumnDef.number("n1"),
        ), rows_per_block=8))
    rowids = {}
    txn = built.primary.begin()
    for name, rows in (("T", T_ROWS), ("P", P_ROWS), ("B", B_ROWS)):
        rowids[name] = [built.primary.insert(txn, name, row) for row in rows]
    built.primary.commit(txn)
    for name in rowids:
        built.enable_inmemory(name, service=InMemoryService.STANDBY)
    built.catch_up()
    if invalidate:  # rewrite rows as they are: the standby invalidates them
        txn = built.primary.begin()
        for name, rows in (("T", T_ROWS), ("P", P_ROWS), ("B", B_ROWS[:1])):
            for i in INVALID[:len(rows)]:
                built.primary.update(
                    txn, name, rowids[name][i], {"n1": rows[i][1]}
                )
        built.primary.commit(txn)
        built.catch_up()
    return built


@pytest.fixture(scope="module")
def databases():
    clean, invalid = deployment(False), deployment(True)
    return {
        "primary": clean.primary,
        "clean standby": clean.standby,
        "half-invalid standby": invalid.standby,
    }


def test_the_paths_are_the_ones_named(databases):
    everything = parse_query("SELECT * FROM T")
    primary = everything.run(databases["primary"])
    clean = everything.run(databases["clean standby"])
    invalid = everything.run(databases["half-invalid standby"])
    assert primary.stats.imcus_used == 0 and primary.stats.rowstore_rows == 8
    assert clean.stats.imcus_used == 1 and clean.stats.rowstore_rows == 0
    assert invalid.stats.fallback_rows == len(INVALID)
    assert sorted(primary.rows) == sorted(clean.rows) == sorted(invalid.rows)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("sql", [
    "SELECT * FROM T WHERE n1 = :1",
    "SELECT * FROM T WHERE n1 != :1",
    "SELECT * FROM T WHERE n1 < :1",
    "SELECT * FROM T WHERE n1 <= :1",
    "SELECT * FROM T WHERE n1 > :1",
    "SELECT * FROM T WHERE n1 >= :1",
    "SELECT * FROM T WHERE n1 BETWEEN :1 AND 10",
    "SELECT * FROM T WHERE n1 BETWEEN -10 AND :1",
    "SELECT * FROM T WHERE c1 != :1",
    "SELECT * FROM T WHERE c1 BETWEEN :1 AND 'z'",
])
def test_a_null_bound_matches_no_row(databases, path, sql):
    result = parse_query(sql).run(databases[path], {1: None})
    assert result.rows == []
    if path != "primary":  # the storage index prunes the unit
        assert (result.stats.imcus_pruned, result.stats.imcus_used) == (1, 0)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("sql, ids", [
    ("SELECT id FROM T WHERE n1 = 0", [3]),
    ("SELECT id FROM T WHERE n1 <= 0", [0, 2, 3]),
    ("SELECT id FROM T WHERE n1 BETWEEN -1 AND 1", [2, 3]),
    ("SELECT id FROM T WHERE n1 != 0", [0, 2, 5, 7]),
])
def test_a_null_never_compares(databases, path, sql, ids):
    """A unit keeps a NULL NUMBER's slot at 0.0 and a tail at NaN: only
    the null mask keeps it out of a compare with 0."""
    rows = parse_query(sql).run(databases[path]).rows
    assert sorted(row[0] for row in rows) == ids


@pytest.mark.parametrize("path", PATHS)
def test_count_with_a_null_bound_is_zero(databases, path):
    query = parse_query("SELECT COUNT(*) FROM T WHERE n1 < :1")
    assert query.run(databases[path], {1: None}) == [0]


@pytest.mark.parametrize("path", PATHS)
def test_is_null_still_tests_null(databases, path):
    for sql, count in (
        ("SELECT COUNT(*) FROM T WHERE n1 IS NOT NULL", 5),
        ("SELECT COUNT(*) FROM T WHERE n1 IS NULL", 3),
    ):
        assert parse_query(sql).run(databases[path]) == [count]


@pytest.mark.parametrize("path", PATHS)
def test_number_min_max_is_a_float_on_every_path(databases, path):
    low, high = parse_query("SELECT MIN(n1), MAX(n1) FROM T").run(
        databases[path]
    )
    assert (repr(low), repr(high)) == ("-3.0", "4.0")


@pytest.mark.parametrize("path", PATHS)
def test_a_stored_nan_makes_min_max_nan_on_every_path(databases, path):
    low, high = parse_query("SELECT MIN(n1), MAX(n1) FROM P").run(
        databases[path]
    )
    assert math.isnan(low) and math.isnan(high)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("op, literal", [
    ("=", 2**53 + 1), ("!=", 2**53 + 1), ("<", 2**53 + 1),
    ("<=", 2**53 + 1), (">", -2**53 - 1), (">=", -2**53 - 1),
    ("<", 2**53 - 1), ("BETWEEN -1 AND", 2**53 + 1),
    ("=", 10**400), ("<", 10**400), (">", -10**400),
], ids=[
    "eq 2^53+1", "ne 2^53+1", "lt 2^53+1", "le 2^53+1", "gt -2^53-1",
    "ge -2^53-1", "lt 2^53-1", "between -1 2^53+1", "eq 10^400",
    "lt 10^400", "gt -10^400",
])
def test_a_literal_float64_cannot_hold_compares_exactly(
    databases, path, op, literal
):
    """2**53 + 1 rounds to 2**53: compared as that float it would match
    the 2**53 row for '=' and miss it for '<' and '!='.  10**400 has no
    float64 at all: it must not raise ``OverflowError``."""
    sql = f"SELECT id FROM B WHERE n1 {op} :1"
    rows = parse_query(sql).run(databases[path], {1: literal}).rows
    if op.startswith("BETWEEN"):
        predicate = Predicate.between("n1", -1, literal)
    else:
        predicate = Predicate("n1", op, literal)
    assert sorted(row[0] for row in rows) == [
        i for i, n1 in B_ROWS if matches(predicate, n1)
    ]


@pytest.mark.parametrize("path", PATHS)
def test_an_index_fetch_of_null_or_the_other_kind_finds_no_row(
    databases, path
):
    database = databases[path]
    assert database.index_fetch("T", "id", 3) == T_ROWS[3]
    assert database.index_fetch("T", "id", "3") is None
    assert database.index_fetch("T", "id", None) is None


def test_a_row_with_a_null_key_reaches_both_scans():
    """A NULL key is not indexed: the insert is not refused after its row
    is stored, so the row has its redo and the standby sees it too."""
    built = Deployment.build(config=small_config())
    built.create_table(TableDef("N", (
        ColumnDef.number("id", nullable=False), ColumnDef.number("n1"),
        ColumnDef.varchar("c1"),
    ), indexes=("id", "n1")))
    txn = built.primary.begin()
    for row in ((8, 80, "a"), (9, None, "b")):
        built.primary.insert(txn, "N", row)
    built.primary.commit(txn)
    built.catch_up()
    everything = parse_query("SELECT * FROM N")
    for database in (built.primary, built.standby):
        assert sorted(everything.run(database).rows) == [
            (8, 80, "a"), (9, None, "b"),
        ]
        assert database.index_fetch("N", "n1", 80) == (8, 80, "a")
        assert database.index_fetch("N", "n1", None) is None
