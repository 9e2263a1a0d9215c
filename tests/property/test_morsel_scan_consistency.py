"""Property: a morsel-parallel service scan equals a fresh serial scan.

Under a randomized OLTP history with interleaved catch-ups, every scan
served through the :class:`~repro.query.QueryService` must equal a fresh
``ScanEngine.scan`` at the QuerySCN published when it was submitted:
morsels are planned at that snapshot, and their partials merge in plan
order.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs import Predicate

from tests.helpers import ClientInserts


def build_deployment(seed: int) -> Deployment:
    config = SystemConfig(
        imcs=IMCSConfig(imcu_target_rows=32, population_workers=1),
        apply=ApplyConfig(n_workers=2),
        seed=seed,
    )
    deployment = Deployment.build(config=config)
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


# the scan "shapes" the test cycles through
SHAPES = [
    (None, None),
    ([Predicate.lt("n1", 40.0)], None),
    ([Predicate.ge("n1", 10.0)], ["id", "n1"]),
]

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 100)),
        st.tuples(st.just("update"), st.integers(0, 30)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("commit"), st.just(0)),
        st.tuples(st.just("catch_up"), st.just(0)),
        st.tuples(st.just("scan"), st.integers(0, len(SHAPES) - 1)),
    ),
    min_size=8,
    max_size=40,
)


def check_scan(deployment: Deployment, service, shape_index: int) -> None:
    predicates, columns = SHAPES[shape_index]
    result = service.scan("T", predicates, columns)
    scn = deployment.standby.query_scn.value
    table = deployment.standby.catalog.table("T")
    fresh = deployment.standby.scan_engine.scan(
        table, scn, predicates, columns
    )
    assert result.rows == fresh.rows, (
        f"parallel scan at QuerySCN {scn} diverged from a fresh serial scan"
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, seed=st.integers(0, 2**20))
def test_morsel_scans_match_fresh_scans(ops, seed):
    deployment = build_deployment(seed)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    service = deployment.start_query_service(n_workers=2)
    rng_ids = iter(range(10_000, 100_000))
    rowids: list = []
    client = ClientInserts(deployment.primary)
    txn = None

    def active_txn():
        nonlocal txn
        if txn is None or not txn.is_active:
            txn = deployment.primary.begin()
        return txn

    try:
        for kind, arg in ops:
            if kind == "insert":
                row = (next(rng_ids), float(arg), f"v{arg % 5}")
                rowids.append(client.insert(active_txn(), "T", row))
            elif kind in ("update", "delete") and rowids:
                t = active_txn()
                rowid = rowids[arg % len(rowids)]
                try:
                    if kind == "update":
                        deployment.primary.update(
                            t, "T", rowid, {"n1": float(arg) * 3}
                        )
                    else:
                        deployment.primary.delete(t, "T", rowid)
                        rowids.remove(rowid)
                except Exception:
                    continue
            elif kind == "commit":
                if txn is not None and txn.is_active:
                    deployment.primary.commit(txn)
            elif kind == "catch_up":
                if txn is not None and txn.is_active:
                    deployment.primary.commit(txn)
                deployment.catch_up()
            elif kind == "scan":
                check_scan(deployment, service, arg)
        # settle and sweep every shape twice more
        if txn is not None and txn.is_active:
            deployment.primary.commit(txn)
        deployment.catch_up()
        for index in range(len(SHAPES)):
            check_scan(deployment, service, index)
            check_scan(deployment, service, index)
    finally:
        service.shutdown()
