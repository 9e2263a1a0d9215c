"""DBIM-on-ADG across RAC (paper, section III-F).

A two-instance primary RAC generates redo on two threads; the standby is a
two-instance SIRA member: instance 1 is the apply master (merger, workers,
coordinator, journal, commit table), instance 2 hosts remotely-homed IMCUs
and a local recovery coordinator that receives invalidation groups and
QuerySCN publications over the interconnect.

Run:  python examples/rac_standby.py
"""

from repro.common.config import IMCSConfig, RACConfig, RowStoreConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs import Predicate


def main() -> None:
    config = SystemConfig(
        rac=RACConfig(primary_instances=2),
        # scale the IMCU/home-range granularity to this example's small
        # table so blocks spread across both standby instances
        imcs=IMCSConfig(imcu_target_rows=128),
        rowstore=RowStoreConfig(rows_per_block=16),
    )
    deployment = Deployment.build(config=config)
    member = deployment.add_standby_cluster(n_instances=2)
    primary = deployment.primary

    print("== creating and loading ACCOUNTS ==")
    deployment.create_table(
        TableDef(
            "ACCOUNTS",
            (
                ColumnDef.number("account_id", nullable=False),
                ColumnDef.number("balance"),
                ColumnDef.varchar("region"),
            ),
            rows_per_block=16,
            indexes=("account_id",),
        )
    )
    # spread transactions across both primary RAC instances
    for instance_id in (1, 2):
        for base in range(0, 600, 100):
            txn = primary.begin(instance_id=instance_id)
            for i in range(100):
                account = (instance_id - 1) * 600 + base + i
                primary.insert(
                    txn, "ACCOUNTS",
                    (account, float(account % 1000), f"r{account % 4}"),
                )
            primary.commit(txn)

    print("== enabling in-memory on the standby cluster ==")
    deployment.enable_inmemory("ACCOUNTS", service=InMemoryService.STANDBY)
    deployment.catch_up()
    per_instance = member.populated_rows()
    print(f"   IMCU rows per standby instance: {per_instance}")
    assert sum(per_instance.values()) == 1200
    assert all(rows > 0 for rows in per_instance.values())

    print("== cluster-wide analytic scan ==")
    result = member.query("ACCOUNTS", [Predicate.eq("region", "r2")])
    print(f"   region r2 accounts: {len(result.rows)} "
          f"(IMCUs used across the cluster: {result.stats.imcus_used})")
    assert result.stats.imcus_used >= 2

    print("== OLTP on both primary instances; invalidations ship remotely ==")
    table = primary.catalog.table("ACCOUNTS")
    for instance_id in (1, 2):
        txn = primary.begin(instance_id=instance_id)
        for account in range(0, 1200, 10):
            rowid = table.indexes["account_id"].search(account)
            primary.update(txn, "ACCOUNTS", rowid, {"balance": -1.0})
        primary.commit(txn)
    deployment.catch_up()
    router = deployment.standby.flush.router
    print(f"   invalidation groups routed locally: "
          f"{router.groups_routed_local}, remotely: "
          f"{router.groups_routed_remote}")
    print(f"   interconnect messages: {router.interconnect.messages_sent}")
    assert router.groups_routed_remote >= 1

    frozen = member.query("ACCOUNTS", [Predicate.eq("balance", -1.0)])
    print(f"   cluster scan sees {len(frozen.rows)} updated accounts")
    assert len(frozen.rows) == 120

    peer = member.peers[0]
    print(f"   instance 2 local QuerySCN: {peer.query_scn.value} "
          f"(master: {deployment.standby.query_scn.value})")
    print("rac standby OK")


if __name__ == "__main__":
    main()
