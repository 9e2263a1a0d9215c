"""CDC feed == standby scan == primary CR, under randomized histories.

Hypothesis drives a randomized client history (multi-transaction DML,
rollbacks, DDL mid-stream, TRUNCATEs, idle stretches) through one
deployment whose ``T`` streams through a CDC egress into a
:class:`~repro.cdc.subscribers.ReplaySubscriber`, and checks, after every
scheduler slice:

* the golden invariant -- at the published QuerySCN the standby's visible
  rows equal a primary Consistent Read at that SCN, per table, with the
  CDC listener attached to the flush;
* a monotone published history.

At the end the replayed rows must equal the standby's scan (feed ==
table-state equivalence, DDL/TRUNCATE mid-cut included).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cdc import ReplaySubscriber
from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef

from tests.helpers import ClientInserts


def build_deployment(seed: int) -> Deployment:
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


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 200)),
        st.tuples(st.just("update"), st.integers(0, 30)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("commit"), st.just(0)),
        st.tuples(st.just("rollback"), st.just(0)),
        st.tuples(st.just("new_txn"), st.just(0)),
        # DDL marker mid-stream: a second table materialises over redo
        st.tuples(st.just("ddl"), st.just(0)),
        # whole-object TRUNCATE: resyncs the CDC feed mid-cut
        st.tuples(st.just("truncate"), st.just(0)),
        st.tuples(st.just("run"), st.integers(1, 20)),
        st.tuples(st.just("check"), st.just(0)),
    ),
    min_size=5,
    max_size=40,
)


class History:
    """A client history applied to one deployment with CDC attached,
    checked against the primary's CR oracle after every slice."""

    def __init__(self, seed: int):
        self.deployment = build_deployment(seed)
        self.deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        self.replica = ReplaySubscriber()
        self.deployment.start_cdc(tables=["T"]).subscribe(
            self.replica, name="replica"
        )
        self.txns = [self.deployment.primary.begin()]
        self.rowids: list = []
        self.client = ClientInserts(self.deployment.primary)
        self.ddl_count = 0

    def active(self):
        if not self.txns[-1].is_active:
            self.txns.append(self.deployment.primary.begin())
        return self.txns[-1]

    def attempt(self, fn) -> bool:
        try:
            fn(self.deployment.primary)
        except Exception:  # row-lock conflict etc.
            return False
        return True

    def tables(self):
        return ["T"] + [f"T{i}" for i in range(self.ddl_count)]

    def compare(self):
        deployment = self.deployment
        history = [scn for __, scn in deployment.standby.query_scn.history]
        assert history == sorted(history), "published QuerySCNs not monotone"
        snapshot = deployment.standby.query_scn.value
        for table_name in self.tables():
            table = deployment.primary.catalog.table(table_name)
            if any(
                part.segment.truncate_scn is not None
                and part.segment.truncate_scn > snapshot
                for part in table.partitions.values()
            ):
                # TRUNCATE is a non-versioned wipe: the primary can no
                # longer serve a CR below it (ORA-01555 analogue), so a
                # lagging standby can't be certified here.
                continue
            expected = sorted(
                values
                for __, values in table.full_scan(
                    snapshot, deployment.primary.txn_table
                )
            )
            got = sorted(deployment.standby.query(table_name).rows)
            assert got == expected, (
                f"standby diverges from primary CR on {table_name} "
                f"at published QuerySCN {snapshot}"
            )

    def finish(self):
        deployment = self.deployment
        for txn in self.txns:
            if txn.is_active:
                deployment.primary.rollback(txn)
        deployment.catch_up()
        self.compare()
        egress = deployment.member().cdc
        assert deployment.sched.run_until_condition(
            lambda: egress.drained, max_time=120.0
        ), "CDC egress never drained"
        assert self.replica.rows("T") == sorted(
            deployment.standby.query("T").rows
        ), "CDC replay diverges from the standby"


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, seed=st.integers(0, 2**20))
def test_cdc_feed_and_standby_match_primary_cr_oracle(ops, seed):
    step = History(seed)
    deployment = step.deployment
    rng_ids = iter(range(10_000, 100_000))

    for kind, arg in ops:
        if kind == "insert":
            value = next(rng_ids)
            step.attempt(
                lambda primary: step.rowids.append(step.client.insert(
                    step.active(), "T", (value, float(arg), f"v{arg % 7}")
                ))
            )
        elif kind in ("update", "delete") and step.rowids:
            rowid = step.rowids[arg % len(step.rowids)]
            if kind == "update":
                step.attempt(
                    lambda primary: primary.update(
                        step.active(), "T", rowid, {"n1": float(arg) * 2}
                    )
                )
            elif step.attempt(
                lambda primary: primary.delete(step.active(), "T", rowid)
            ):
                step.rowids.remove(rowid)
        elif kind == "commit":
            step.attempt(lambda primary: primary.commit(step.active()))
        elif kind == "rollback":
            removed: set = set()
            step.attempt(
                lambda primary: removed.update(
                    step.client.rollback(step.active())
                )
            )
            step.rowids[:] = [r for r in step.rowids if r not in removed]
        elif kind == "new_txn":
            step.txns.append(deployment.primary.begin())
        elif kind == "ddl":
            name = f"T{step.ddl_count}"
            step.ddl_count += 1
            deployment.create_table(
                TableDef(
                    name,
                    (ColumnDef.number("id", nullable=False),),
                    rows_per_block=4,
                )
            )
            deployment.enable_inmemory(name, service=InMemoryService.BOTH)
        elif kind == "truncate":
            step.attempt(lambda primary: primary.truncate_table("T"))
        elif kind == "run":
            deployment.run(arg / 100.0)
            step.compare()
        elif kind == "check":
            deployment.run(0.05)
            step.compare()

    step.finish()
