"""Property: a standby bounce never changes what a query returns.

Restarting at *any* published QuerySCN -- instantly from checkpoints or
cold -- must yield bit-identical scan results to the moment before the
bounce, and the query service's cache must keep agreeing with fresh scans
across the restart boundary.  The deterministic companion test bounces
the standby *mid flush group* (worklink stalled between mining and
publication), the exact window the tail-replay floor proof covers.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.sites import PROCEED, Action, Decision, SiteRegistry, recording
from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs import Predicate

from tests.db.conftest import load


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
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    deployment.enable_restart_checkpoints()
    return deployment


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 100)),
        st.tuples(st.just("update"), st.integers(0, 30)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("commit"), st.just(0)),
        st.tuples(st.just("catch_up"), st.just(0)),
        st.tuples(st.just("run"), st.integers(1, 4)),
        st.tuples(st.just("restart"), st.just(0)),
    ),
    min_size=10,
    max_size=40,
)


def check_restart(deployment: Deployment) -> None:
    standby = deployment.standby
    scn = standby.query_scn.value
    before = standby.query("T")
    deployment.restart_standby()
    assert standby.query_scn.value == scn  # published SCN survives
    after = standby.query("T")
    # sorted: a cold restart's row-format scan emits DBA order while the
    # warm scan appends reconciled rows last -- content must be identical
    assert sorted(after.rows) == sorted(before.rows), (
        f"{standby.last_restart_report.mode} restart at QuerySCN {scn} "
        "changed the scan result"
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, seed=st.integers(0, 2**20))
def test_restart_at_any_published_queryscn_is_invisible(ops, seed):
    deployment = build_deployment(seed)
    rng_ids = iter(range(10_000, 100_000))
    rowids: list = []
    txn = None
    restarted = 0

    def active_txn():
        nonlocal txn
        if txn is None or not txn.is_active:
            txn = deployment.primary.begin()
        return txn

    for kind, arg in ops:
        if kind == "insert":
            t = active_txn()
            deployment.primary.insert(
                t, "T", (next(rng_ids), float(arg), f"v{arg % 5}")
            )
            rowids.append(t.changes[-1].rowid)
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
        elif kind == "run":
            # let the checkpoint writer capture between publications
            deployment.run(arg * 0.25)
        elif kind == "restart":
            check_restart(deployment)
            restarted += 1
    # settle: post-history the standby still converges to the primary
    if txn is not None and txn.is_active:
        deployment.primary.commit(txn)
    deployment.catch_up()
    check_restart(deployment)
    standby = deployment.standby
    assert standby.restarts == restarted + 1


class BlockFlush:
    """Stalls worklink draining while ``blocked`` (chaos injector)."""

    def __init__(self):
        self.blocked = True

    def decide(self, site, event, context):
        return Decision(Action.STALL) if self.blocked else PROCEED


def test_restart_mid_flush_group_is_exact():
    """Bounce with a commit mined but its invalidation group unflushed.

    The stalled worklink holds the flush group between mining and
    publication; the restart destroys the journal mid-group.  The tail
    replay must re-mine that commit (its SCN is above every checkpoint's
    QuerySCN) and the forced flush must not publish it early -- the scan
    at the surviving QuerySCN stays bit-identical, and after the stall
    lifts the standby converges to the primary."""
    registry = SiteRegistry()
    with recording(registry):
        deployment = build_deployment(seed=7)
        rowids, __ = load(deployment, n=120)
        deployment.catch_up()
        deployment.run(1.0)  # checkpoint round at the quiet QuerySCN

    standby = deployment.standby
    blocker = BlockFlush()
    registry.install("flush.worklink", blocker)

    txn = deployment.primary.begin()
    for rowid in rowids[:30]:
        deployment.primary.update(txn, "T", rowid, {"n1": -9.0})
    commit_scn = deployment.primary.commit(txn)

    ok = deployment.sched.run_until_condition(
        lambda: all(
            w.applied_through() >= commit_scn for w in standby.workers
        )
        and standby.journal.anchor_count >= 1,
        max_time=60.0,
    )
    assert ok, "commit never applied/mined"
    assert standby.query_scn.value < commit_scn  # mid flush group

    before = standby.query("T")
    assert not any(row[1] == -9.0 for row in before.rows)
    report = deployment.restart_standby()
    assert report.mode == "instant"
    after = standby.query("T")
    # the unpublished commit stays unseen
    assert sorted(after.rows) == sorted(before.rows)

    blocker.blocked = False
    deployment.catch_up()
    final = standby.query("T")
    assert sum(1 for row in final.rows if row[1] == -9.0) == 30


def test_query_service_cache_agrees_across_restart():
    """Cached results keep matching fresh scans over a bounce."""
    deployment = build_deployment(seed=3)
    rowids, __ = load(deployment, n=150)
    deployment.catch_up()
    service = deployment.start_query_service(n_workers=2, cache_capacity=16)
    predicates = [Predicate.lt("n1", 60.0)]
    try:
        first, cached = service.scan("T", predicates)
        assert not cached
        deployment.run(1.0)  # checkpoint round
        report = deployment.restart_standby()
        assert report.mode == "instant"
        result, __ = service.scan("T", predicates)
        table = deployment.standby.catalog.table("T")
        fresh = deployment.standby.scan_engine.scan(
            table, deployment.standby.query_scn.value, predicates, None
        )
        assert result.rows == fresh.rows
        assert sorted(result.rows) == sorted(first.rows)
        # and after new DML the cache still never serves stale rows
        txn = deployment.primary.begin()
        for rowid in rowids[:10]:
            deployment.primary.update(txn, "T", rowid, {"n1": 500.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        result, __ = service.scan("T", predicates)
        fresh = deployment.standby.scan_engine.scan(
            table, deployment.standby.query_scn.value, predicates, None
        )
        assert result.rows == fresh.rows
        assert len(fresh.rows) == len(first.rows) - 10
    finally:
        service.shutdown()
