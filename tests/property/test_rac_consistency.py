"""Property test: the golden invariant holds on a RAC standby, SIRA or MIRA.

The cluster-flavoured counterpart of test_consistency.py.  IMCUs are
distributed across two instances by the home-location map, invalidation
groups ship over the interconnect with batching, and the peer's local
coordinator acknowledges before the master publishes.  Under MIRA both
instances also apply the change vectors they own, so a transaction's
invalidation records scatter across two journals and the flush gathers
them at advancement.  Either way a scan over every instance's IMCS at the
member's QuerySCN must equal a primary consistent read at the same SCN,
whether it is a direct member query, a query-service scan or a SQL
aggregate on the member.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.config import (
    ApplyConfig,
    IMCSConfig,
    RACConfig,
    RowStoreConfig,
    SystemConfig,
)
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.db.sql import parse_query

from tests.helpers import ClientInserts


def build(seed: int, mira: bool) -> Deployment:
    config = SystemConfig(
        imcs=IMCSConfig(imcu_target_rows=8, population_workers=1,
                        repopulate_invalid_fraction=0.3,
                        repopulate_min_interval=0.05),
        apply=ApplyConfig(n_workers=2),
        rac=RACConfig(primary_instances=2, invalidation_batch_size=4),
        rowstore=RowStoreConfig(rows_per_block=4),
        seed=seed,
    )
    deployment = Deployment.build(config=config)
    deployment.add_standby_cluster(n_instances=2, mira=mira)
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
        # a DDL marker: every instance's units of the table must go
        st.tuples(st.just("truncate"), st.just(0)),
        st.tuples(st.just("run"), st.integers(1, 15)),
    ),
    min_size=5,
    max_size=40,
)


@pytest.mark.parametrize("mira", [False, True], ids=["sira", "mira"])
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, seed=st.integers(0, 2**20))
# rows populated on the peer, then TRUNCATE: a DDL pass that dropped the
# master's units only left the peer serving the wiped rows under SIRA
@example(
    ops=[("insert", 0), ("insert", 0), ("commit", 0), ("run", 5),
         ("truncate", 0)],
    seed=0,
)
def test_rac_member_matches_primary_cr(mira, ops, seed):
    deployment = build(seed, mira)
    primary = deployment.primary
    member = deployment.member()
    deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
    service = deployment.start_query_service(n_workers=2)

    next_id = iter(range(10_000, 100_000))
    rowids: list = []
    client = ClientInserts(primary)
    txns = [primary.begin(instance_id=1)]
    instance_toggle = iter([2, 1] * 1000)

    def active():
        if not txns[-1].is_active:
            txns.append(primary.begin(instance_id=next(instance_toggle)))
        return txns[-1]

    for kind, arg in ops:
        if kind == "insert":
            rowids.append(client.insert(
                active(), "T", (next(next_id), float(arg), f"v{arg % 7}")
            ))
        elif kind == "update" and rowids:
            primary.update(
                active(), "T", rowids[arg % len(rowids)],
                {"n1": float(arg) * 3},
            )
        elif kind == "delete" and rowids:
            primary.delete(active(), "T", rowids.pop(arg % len(rowids)))
        elif kind == "commit":
            primary.commit(active())
        elif kind == "rollback":
            gone = client.rollback(active())
            rowids[:] = [r for r in rowids if r not in gone]
        elif kind == "truncate":
            primary.truncate_table("T")
            rowids.clear()
        elif kind == "run":
            deployment.run(arg / 100.0)

    for txn in txns:
        if txn.is_active:
            primary.rollback(txn)
    deployment.catch_up()

    snapshot = member.published_scn
    table = primary.catalog.table("T")
    expected = sorted(
        values
        for __, values in table.full_scan(snapshot, primary.txn_table)
    )
    got = sorted(member.query("T").rows)
    assert got == expected, (
        f"{'MIRA' if mira else 'SIRA'} divergence at {snapshot}: "
        f"{len(got)} vs {len(expected)}"
    )
    n1 = [values[1] for values in expected]
    aggregate = parse_query("SELECT COUNT(*), SUM(n1) FROM T").run(member)
    assert aggregate == [len(n1), sum(n1) if n1 else None]
    # planned at the same published QuerySCN, before the scheduler runs
    assert sorted(service.scan("T").rows) == expected
