"""Capacity expansion: the paper's Figure 2 deployment.

"The latest month of the SALES fact table data is populated in the Primary
instance's IMCS, but the entire year's SALES data is populated on the
Standby instance for running analytics.  The dimension tables can be
populated on both instances for efficient join processing."

We build a range-partitioned SALES table (one partition per month), put
only DECEMBER in the primary's IMCS, put all twelve months in the
standby's IMCS, and put the PRODUCTS dimension on both.  Services route
the workloads: current-month dashboards hit the primary, full-year
analytics hit the standby -- and the combined columnar footprint exceeds
what either instance holds alone (the "capacity expansion" effect).
Reads scale the same way: a second standby behind the same services is
one argument (``n_standbys=2``), and the router spreads sessions over
both.

Run:  python examples/capacity_expansion.py
"""

from repro.db import (
    ColumnDef,
    Deployment,
    InMemoryService,
    PartitionScheme,
    Service,
    TableDef,
)
from repro.fleet import FleetRouter
from repro.imcs import Predicate

MONTHS = [
    "JAN", "FEB", "MAR", "APR", "MAY", "JUN",
    "JUL", "AUG", "SEP", "OCT", "NOV", "DEC",
]


def main() -> None:
    deployment = Deployment.build(n_standbys=2)
    primary, standby = deployment.primary, deployment.standby

    print("== creating SALES (range-partitioned by month) and PRODUCTS ==")
    bounds = [(month, (i + 1) * 100) for i, month in enumerate(MONTHS)]
    deployment.create_table(
        TableDef(
            "SALES",
            (
                ColumnDef.number("day_of_year", nullable=False),
                ColumnDef.number("product_id", nullable=False),
                ColumnDef.number("amount"),
            ),
            scheme=PartitionScheme.by_range("day_of_year", bounds),
        )
    )
    deployment.create_table(
        TableDef(
            "PRODUCTS",
            (
                ColumnDef.number("product_id", nullable=False),
                ColumnDef.varchar("name"),
                ColumnDef.varchar("category"),
            ),
            indexes=("product_id",),
        )
    )

    print("== loading a year of sales + the product dimension ==")
    txn = primary.begin()
    for product_id in range(50):
        primary.insert(
            txn, "PRODUCTS",
            (product_id, f"product-{product_id}", f"cat-{product_id % 5}"),
        )
    primary.commit(txn)
    day = 0
    for __ in range(1200):
        txn = primary.begin()
        for ___ in range(5):
            primary.insert(
                txn, "SALES",
                (day % 1200, float(day % 50), float(day % 997)),
            )
            day += 1
        primary.commit(txn)

    print("== Fig. 2 in-memory layout ==")
    # primary: only the latest month of SALES
    deployment.enable_inmemory(
        "SALES", service=InMemoryService.PRIMARY, partition="DEC"
    )
    # standby: the whole year
    for month in MONTHS:
        deployment.enable_inmemory(
            "SALES", service=InMemoryService.STANDBY, partition=month
        )
    # dimension table: both
    deployment.enable_inmemory("PRODUCTS", service=InMemoryService.BOTH)
    deployment.catch_up()

    primary_bytes = primary.imcs.used_bytes
    standby_bytes = standby.imcs.used_bytes
    print(f"   primary IMCS: {primary.imcs.populated_rows} rows, "
          f"{primary_bytes} bytes")
    print(f"   standby IMCS: {standby.imcs.populated_rows} rows, "
          f"{standby_bytes} bytes")
    print(f"   combined columnar capacity: {primary_bytes + standby_bytes} "
          f"bytes (> either instance alone)")

    print("== services route the workloads (paper's three services) ==")
    router = FleetRouter(deployment)
    router.registry.create("current_month_dashboard", Service.PRIMARY_ONLY)
    router.registry.create("year_analytics", Service.STANDBY_ONLY)
    router.registry.create("product_lookup", Service.PRIMARY_AND_STANDBY)

    big_sales = [Predicate.ge("amount", 500.0)]
    with router.connect("current_month_dashboard") as dashboard:
        december = dashboard.submit(
            "SALES", big_sales, partitions=["DEC"]
        ).result
    print(f"   December dashboard ({dashboard.target.describe()} IMCS): "
          f"{len(december.rows)} rows, IMCUs used: "
          f"{december.stats.imcus_used}")
    assert december.stats.imcus_used >= 1

    # two analysts: the router balances them over the two standbys
    analysts = [router.connect("year_analytics") for __ in range(2)]
    assert {s.target.member for s in analysts} == {"standby-1", "standby-2"}
    for session in analysts:
        full_year = session.submit("SALES", big_sales).result
        print(f"   full-year analytics ({session.target.describe()} IMCS): "
              f"{len(full_year.rows)} rows, IMCUs used: "
              f"{full_year.stats.imcus_used}")
        assert full_year.stats.imcus_used >= 12
        session.close()

    with router.connect("product_lookup") as lookup:
        row = lookup.execute("SELECT * FROM PRODUCTS WHERE product_id = 7")[0]
    print(f"   product lookup via PRIMARY_AND_STANDBY service "
          f"({lookup.target.describe()}) -> {row}")
    print("capacity expansion OK")


if __name__ == "__main__":
    main()
