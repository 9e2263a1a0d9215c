"""Property test: the golden invariant holds on a SIRA standby RAC.

The cluster-flavoured counterpart of test_consistency.py: IMCUs are
distributed across a master and a satellite by the home-location map,
invalidation groups ship over the interconnect with batching, and the
satellite's local coordinator acknowledges before the master publishes.
A merged-IMCS scan at the master QuerySCN must equal a primary consistent
read at the same SCN.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import (
    ApplyConfig,
    IMCSConfig,
    RACConfig,
    RowStoreConfig,
    SystemConfig,
)
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef


def build(seed: int) -> Deployment:
    config = SystemConfig(
        imcs=IMCSConfig(imcu_target_rows=32, population_workers=1,
                        repopulate_invalid_fraction=0.3,
                        repopulate_min_interval=0.05),
        apply=ApplyConfig(n_workers=3),
        rac=RACConfig(standby_instances=2, invalidation_batch_size=4),
        rowstore=RowStoreConfig(rows_per_block=4),
        seed=seed,
    )
    deployment = Deployment.build(config=config)
    deployment.add_standby_cluster(n_instances=2)
    deployment.create_table(TableDef(
        "T",
        (ColumnDef.number("id", nullable=False),
         ColumnDef.number("n1"),
         ColumnDef.varchar("c1")),
        rows_per_block=4,
    ))
    return deployment


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 100)),
        st.tuples(st.just("update"), st.integers(0, 30)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("commit"), st.just(0)),
        st.tuples(st.just("rollback"), st.just(0)),
        st.tuples(st.just("run"), st.integers(1, 15)),
    ),
    min_size=5,
    max_size=40,
)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, seed=st.integers(0, 2**20))
def test_sira_cluster_matches_primary_cr(ops, seed):
    deployment = build(seed)
    primary = deployment.primary
    cluster = deployment.members[0].cluster
    deployment.enable_inmemory("T", service=InMemoryService.STANDBY)

    next_id = iter(range(10_000, 100_000))
    rowids: list = []
    txns = [primary.begin()]

    def active():
        if not txns[-1].is_active:
            txns.append(primary.begin())
        return txns[-1]

    for kind, arg in ops:
        if kind == "insert":
            txn = active()
            primary.insert(txn, "T", (next(next_id), float(arg), f"v{arg % 7}"))
            rowids.append(txn.changes[-1].rowid)
        elif kind in ("update", "delete") and rowids:
            txn = active()
            rowid = rowids[arg % len(rowids)]
            try:
                if kind == "update":
                    primary.update(txn, "T", rowid, {"n1": float(arg) * 3})
                else:
                    primary.delete(txn, "T", rowid)
                    rowids.remove(rowid)
            except Exception:
                continue
        elif kind == "commit":
            primary.commit(active())
        elif kind == "rollback":
            txn = active()
            gone = {c.rowid for c in txn.changes if c.kind.name == "INSERT"}
            primary.rollback(txn)
            rowids[:] = [r for r in rowids if r not in gone]
        elif kind == "run":
            deployment.run(arg / 100.0)

    for txn in txns:
        if txn.is_active:
            primary.rollback(txn)
    deployment.catch_up()

    snapshot = deployment.standby.query_scn.value
    table = primary.catalog.table("T")
    expected = sorted(
        values
        for __, values in table.full_scan(snapshot, primary.txn_table)
    )
    got = sorted(cluster.query("T").rows)
    assert got == expected, (
        f"SIRA cluster divergence at {snapshot}: "
        f"{len(got)} vs {len(expected)}"
    )
