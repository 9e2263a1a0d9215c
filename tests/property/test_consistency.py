"""The golden invariant (DESIGN.md section 4).

For any committed history and any apply/flush/population interleaving, a
standby IMCS scan at the published QuerySCN must return exactly what a
row-store Consistent Read at the same SCN returns on the primary.
Hypothesis drives randomized histories (concurrent transactions, updates,
deletes, rollbacks) and randomized scheduler timing; the invariant is
checked at several intermediate consistency points, not just at the end,
and on *every* standby member at that member's own published QuerySCN
(one member or three: the deployment is the same class).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs import Predicate

from tests.helpers import ClientInserts
from tests.naive_predicate import eval_row


def build_deployment(seed: int, n_standbys: int = 1) -> Deployment:
    config = SystemConfig(
        imcs=IMCSConfig(
            imcu_target_rows=32,
            population_workers=1,
            repopulate_invalid_fraction=0.3,
            repopulate_min_interval=0.05,
        ),
        apply=ApplyConfig(n_workers=3),
        seed=seed,
    )
    deployment = Deployment.build(config=config, n_standbys=n_standbys)
    deployment.create_table(
        TableDef(
            "T",
            (
                ColumnDef.number("id", nullable=False),
                ColumnDef.number("n1"),
                ColumnDef.varchar("c1"),
            ),
            rows_per_block=4,
            indexes=("id",),
        )
    )
    return deployment


# operation alphabet: (kind, argument)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 200)),
        st.tuples(st.just("update"), st.integers(0, 30)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("commit"), st.just(0)),
        st.tuples(st.just("rollback"), st.just(0)),
        st.tuples(st.just("new_txn"), st.just(0)),
        st.tuples(st.just("run"), st.integers(1, 20)),
        st.tuples(st.just("check"), st.just(0)),
        # standby instance bounce: all DBIM-on-ADG state is volatile; the
        # III-E restart protocol must keep later scans exact
        st.tuples(st.just("restart"), st.just(0)),
    ),
    min_size=5,
    max_size=60,
)


def primary_cr_rows(deployment: Deployment, snapshot: int) -> list[tuple]:
    table = deployment.primary.catalog.table("T")
    return sorted(
        values
        for __, values in table.full_scan(snapshot, deployment.primary.txn_table)
    )


def check_invariant(deployment: Deployment) -> None:
    for member in deployment.members:
        snapshot = member.published_scn
        standby_rows = sorted(member.query("T").rows)
        expected = primary_cr_rows(deployment, snapshot)
        assert standby_rows == expected, (
            f"{member.name} scan at QuerySCN {snapshot} diverged: "
            f"{len(standby_rows)} rows vs {len(expected)} expected"
        )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ops=OPS, seed=st.integers(0, 2**20), n_standbys=st.sampled_from((1, 3))
)
def test_standby_imcs_matches_primary_cr(ops, seed, n_standbys):
    deployment = build_deployment(seed, n_standbys)
    rng_ids = iter(range(10_000, 100_000))
    rowids: list = []
    client = ClientInserts(deployment.primary)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)

    txns = [deployment.primary.begin()]

    def active_txn():
        if not txns[-1].is_active:
            txns.append(deployment.primary.begin())
        return txns[-1]

    mutated = 0
    for kind, arg in ops:
        if kind == "insert":
            rowids.append(client.insert(
                active_txn(), "T", (next(rng_ids), float(arg), f"v{arg % 7}")
            ))
            mutated += 1
        elif kind in ("update", "delete") and rowids:
            txn = active_txn()
            rowid = rowids[arg % len(rowids)]
            try:
                if kind == "update":
                    deployment.primary.update(
                        txn, "T", rowid, {"n1": float(arg) * 2}
                    )
                else:
                    deployment.primary.delete(txn, "T", rowid)
                    rowids.remove(rowid)
                mutated += 1
            except Exception:
                # row lock conflict / already deleted: skip, like a client
                continue
        elif kind == "commit":
            deployment.primary.commit(active_txn())
        elif kind == "rollback":
            removed = client.rollback(active_txn())
            rowids[:] = [r for r in rowids if r not in removed]
        elif kind == "new_txn":
            txns.append(deployment.primary.begin())
        elif kind == "run":
            deployment.run(arg / 100.0)
        elif kind == "restart":
            # bounce one member; which one varies with the history
            deployment.restart_standby(
                member=f"standby-{1 + mutated % n_standbys}"
            )
        elif kind == "check" and mutated:
            deployment.run(0.05)
            check_invariant(deployment)

    # finish: commit or roll back every open transaction, then converge
    for txn in txns:
        if txn.is_active:
            deployment.primary.rollback(txn)
    deployment.catch_up()
    check_invariant(deployment)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), n_rows=st.integers(20, 80))
def test_predicate_scans_match_rowstore(seed, n_rows):
    """Filtered standby scans agree with a row-store evaluation at the
    same snapshot (exercises storage index + SMU reconciliation)."""
    deployment = build_deployment(seed)
    txn = deployment.primary.begin()
    rowids = []
    for i in range(n_rows):
        rowids.append(
            deployment.primary.insert(txn, "T", (i, i * 1.0, f"v{i % 3}"))
        )
    deployment.primary.commit(txn)
    deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
    deployment.catch_up()

    # churn: update a deterministic-but-seeded subset
    import random

    rng = random.Random(seed)
    txn = deployment.primary.begin()
    for rowid in rng.sample(rowids, k=len(rowids) // 3):
        deployment.primary.update(txn, "T", rowid, {"n1": -5.0})
    deployment.primary.commit(txn)
    deployment.catch_up()

    snapshot = deployment.standby.query_scn.value
    for predicate in (
        Predicate.eq("n1", -5.0),
        Predicate.eq("c1", "v1"),
        Predicate.between("n1", 3.0, 20.0),
        Predicate.gt("id", n_rows // 2),
    ):
        got = sorted(deployment.standby.query("T", [predicate]).rows)
        table = deployment.primary.catalog.table("T")
        expected = sorted(
            values
            for __, values in table.full_scan(
                snapshot, deployment.primary.txn_table
            )
            if eval_row(predicate, values, table.schema)
        )
        assert got == expected, f"divergence for {predicate}"
