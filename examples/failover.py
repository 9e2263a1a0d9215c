"""Failover: the standby takes over -- with its column store warm.

ADG exists for disaster recovery; DBIM-on-ADG's quiet bonus is that when
disaster strikes, the standby's In-Memory Column Store is *already
populated*.  This example kills the primary mid-workload, performs
terminal recovery + activation, and shows the new primary serving both
OLTP and columnar analytics immediately -- no cold re-population.

Run:  python examples/failover.py
"""

from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.db.failover import failover
from repro.imcs import Predicate


def main() -> None:
    deployment = Deployment.build()
    primary, standby = deployment.primary, deployment.standby

    print("== normal operation: OLTP on primary, IMCS on standby ==")
    deployment.create_table(TableDef(
        "TRADES",
        (ColumnDef.number("trade_id", nullable=False),
         ColumnDef.number("quantity"),
         ColumnDef.varchar("symbol")),
        indexes=("trade_id",),
    ))
    txn = primary.begin()
    rowids = []
    for i in range(800):
        rowids.append(primary.insert(
            txn, "TRADES", (i, float(i % 250), f"SYM{i % 10}")
        ))
    primary.commit(txn)
    deployment.enable_inmemory("TRADES", service=InMemoryService.STANDBY)
    deployment.catch_up()
    print(f"   standby IMCS rows: {standby.imcs.populated_rows}")

    print("== disaster: in-flight transactions, then the primary dies ==")
    txn = primary.begin()
    for rowid in rowids[:40]:
        primary.update(txn, "TRADES", rowid, {"quantity": -1.0})
    primary.commit(txn)
    deployment.run(0.05)  # redo is shipped but maybe not yet applied
    deployment.lose_primary()
    print("   primary gone; standby performs terminal recovery")

    print("== failover ==")
    new_primary = failover(standby, deployment.sched)
    print(f"   activated; SCN clock resumed at {new_primary.clock.current}")
    print(f"   IMCS carried over: {new_primary.imcs.populated_rows} rows "
          f"(no repopulation)")

    # nothing shipped was lost
    recovered = new_primary.query("TRADES", [Predicate.eq("quantity", -1.0)])
    print(f"   last-gasp transaction recovered: {len(recovered.rows)} rows")
    assert len(recovered.rows) == 40

    print("== business continues on the new primary ==")
    txn = new_primary.begin()
    new_primary.insert(txn, "TRADES", (9001, 42.0, "POST"))
    new_primary.commit(txn)
    analytics = new_primary.query(
        "TRADES", [Predicate.eq("symbol", "SYM3")]
    )
    print(f"   analytic scan: {len(analytics.rows)} rows, "
          f"IMCUs used: {analytics.stats.imcus_used}")
    assert analytics.stats.imcus_used >= 1
    fresh = new_primary.query("TRADES", [Predicate.eq("symbol", "POST")])
    assert len(fresh.rows) == 1
    print("failover OK")


if __name__ == "__main__":
    main()
