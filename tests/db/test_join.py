"""``Database.join``: an inner equi-join, one hash join keyed by value.

FACTS(fact_id, region, amount) joins DIMS(region, name) on the standby,
whose IMCS holds both tables.  Every answer must equal a nested loop over
the primary's consistent read at the standby's QuerySCN, in the same
order: probe rows in scan order, each followed by its build matches.
"""

from __future__ import annotations

import pytest

from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs import Predicate

from tests.db.conftest import small_config


@pytest.fixture
def pair():
    deployment = Deployment.build(config=small_config())
    deployment.create_table(TableDef(
        "FACTS",
        (ColumnDef.number("fact_id", nullable=False),
         ColumnDef.varchar("region"), ColumnDef.number("amount")),
        rows_per_block=8, indexes=("fact_id",),
    ))
    deployment.create_table(TableDef(
        "DIMS",
        (ColumnDef.varchar("region"), ColumnDef.varchar("name")),
        rows_per_block=8,
    ))
    primary = deployment.primary
    txn = primary.begin()
    for i in range(60):
        primary.insert(txn, "FACTS", (i, f"r{i % 6}", float(i)))
    for r in range(6):
        primary.insert(txn, "DIMS", (f"r{r}", f"Region {r}"))
    primary.commit(txn)
    for name in ("FACTS", "DIMS"):
        deployment.enable_inmemory(name, service=InMemoryService.STANDBY)
    deployment.catch_up()
    return deployment


def nested_loop(deployment, a, column_a, b, column_b, names_a, names_b):
    """The join over the primary's rows at the standby's QuerySCN."""
    primary = deployment.primary
    scn = deployment.standby.query_scn.value

    def rows(name):
        table = primary.catalog.table(name)
        schema = table.schema
        return [
            {c.name: v for c, v in zip(schema.columns, values)}
            for __, values in table.full_scan(scn, primary.txn_table)
        ]

    build = rows(a)
    return [
        tuple(x[n] for n in names_a) + tuple(y[n] for n in names_b)
        for y in rows(b)
        for x in build
        if x[column_a] is not None and x[column_a] == y[column_b]
    ]


def test_join_equals_a_nested_loop_over_consistent_read(pair):
    result = pair.standby.join(
        "DIMS", "region", "FACTS", "region",
        columns_a=["name"], columns_b=["fact_id", "amount"],
    )
    assert len(result.rows) == 60  # every fact meets one dim
    assert result.rows == nested_loop(
        pair, "DIMS", "region", "FACTS", "region",
        ["name"], ["fact_id", "amount"],
    )
    assert ("Region 1", 7, 7.0) in result.rows


def test_join_with_predicates(pair):
    result = pair.standby.join(
        "FACTS", "region", "DIMS", "region",
        predicates_a=[Predicate.ge("amount", 50.0)],
        predicates_b=[Predicate.eq("region", "r3")],
        columns_a=["fact_id"], columns_b=["name"],
    )
    # facts with amount >= 50 in region r3: ids 51 and 57
    assert sorted(result.rows) == [(51, "Region 3"), (57, "Region 3")]


def test_reconcile_rows_join_by_value(pair):
    """A fact moved to a new region, and the dim inserted for it after
    population, meet through the scans' row-store reconcile."""
    primary = pair.primary
    txn = primary.begin()
    rowid = primary.catalog.table("FACTS").indexes["fact_id"].search(0)
    primary.update(txn, "FACTS", rowid, {"region": "r-new"})
    primary.insert(txn, "DIMS", ("r-new", "Brand New"))
    primary.commit(txn)
    pair.catch_up()
    result = pair.standby.join(
        "FACTS", "region", "DIMS", "region",
        columns_a=["fact_id"], columns_b=["name"],
    )
    assert [r for r in result.rows if r[1] == "Brand New"] == [
        (0, "Brand New")
    ]
    assert result.rows == nested_loop(
        pair, "FACTS", "region", "DIMS", "region", ["fact_id"], ["name"],
    )


def test_null_keys_never_join(pair):
    primary = pair.primary
    txn = primary.begin()
    primary.insert(txn, "FACTS", (999, None, 1.0))
    primary.insert(txn, "DIMS", (None, "Nowhere"))
    primary.commit(txn)
    pair.catch_up()
    result = pair.standby.join(
        "FACTS", "region", "DIMS", "region",
        columns_a=["fact_id"], columns_b=["name"],
    )
    assert len(result.rows) == 60
    assert all(r[0] != 999 and r[1] != "Nowhere" for r in result.rows)
