"""Advanced standby analytics: the paper's section-V feature set.

"Enabling DBIM on the Standby database has opened it up to a plethora of
features introduced by DBIM.  In-Memory Expressions are now supported on
the Standby database [...]  In-Memory Join Groups can also be created for
the Standby database to make join processing faster."

This example runs against a live standby:

1. an In-Memory Expression (net amount incl. tax) materialised into the
   standby's IMCUs and used as a filter,
2. a fact/dimension equi-join, a hash join keyed by value over two
   in-memory scans.

(Join Groups are not reproduced: encoding both join columns against one
shared dictionary left the join no faster here, because each side is a
scan that decodes its rows anyway -- DESIGN section 5a.  Nor is the
paper's third section-V feature, In-Memory External Tables: it is
IMCS-only and generates no redo, so it has no standby protocol to
model.)

Run:  python examples/standby_analytics.py
"""

from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs import Expression, Predicate


def main() -> None:
    deployment = Deployment.build()
    primary, standby = deployment.primary, deployment.standby

    print("== schema: SALES fact + STORES dimension ==")
    deployment.create_table(TableDef(
        "SALES",
        (ColumnDef.number("sale_id", nullable=False),
         ColumnDef.varchar("store_code"),
         ColumnDef.number("amount")),
    ))
    deployment.create_table(TableDef(
        "STORES",
        (ColumnDef.varchar("store_code"),
         ColumnDef.varchar("city")),
    ))
    txn = primary.begin()
    for i in range(500):
        primary.insert(txn, "SALES", (i, f"S{i % 8:02d}", float(i % 200)))
    for s in range(8):
        primary.insert(txn, "STORES", (f"S{s:02d}", f"City {s}"))
    primary.commit(txn)
    deployment.enable_inmemory("SALES", service=InMemoryService.STANDBY)
    deployment.enable_inmemory("STORES", service=InMemoryService.STANDBY)
    deployment.catch_up()

    print("== 1. In-Memory Expression: amount * 1.19 (gross) ==")
    standby.add_inmemory_expression(
        "SALES",
        Expression("gross", ("amount",),
                   lambda a: None if a is None else round(a * 1.19, 2)),
    )
    deployment.catch_up()  # IMCUs repopulate with the expression column
    result = standby.query(
        "SALES", [Predicate.gt("gross", 230.0)],
        columns=["sale_id", "amount", "gross"],
    )
    print(f"   sales with gross > 230: {len(result.rows)} "
          f"(IMCUs used: {result.stats.imcus_used})")
    assert result.stats.imcus_used >= 1
    assert all(abs(row[2] - row[1] * 1.19) < 0.01 for row in result.rows)

    print("== 2. Equi-join SALES x STORES on store_code ==")
    joined = standby.join(
        "SALES", "store_code", "STORES", "store_code",
        predicates_a=[Predicate.ge("amount", 150.0)],
        columns_a=["sale_id", "amount"], columns_b=["city"],
    )
    print(f"   joined rows: {len(joined.rows)}")
    assert len(joined.rows) == 100
    assert all(city == f"City {sale_id % 8}"
               for sale_id, __, city in joined.rows)

    print("standby analytics OK")


if __name__ == "__main__":
    main()
