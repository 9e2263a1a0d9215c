"""The one ingest path against a reference model (DESIGN.md section 15).

Every redo shipment is a ``CVBatch`` mined a chunk at a time; there is no
second production path to compare it with, so the oracle lives here:

* :class:`tests.naive_miner.NaiveMiner` -- a dict ``xid -> {(object, dba,
  slot)}`` with whole-block-as-barrier and commit/abort/TRUNCATE rules --
  reads the primary's redo log one change vector at a time and says, for
  every commit, which invalidations the flush owes the SMUs;
* the primary's Consistent Read says what a standby scan must return.

Hypothesis drives randomized histories -- multi-transaction DML,
rollbacks, DDL markers (CREATE TABLE mid-stream), TRUNCATEs, and stretches
that ship only control CVs or heartbeats (empty batches from the miner's
point of view) -- through a real deployment.  At **every published
QuerySCN** the invalidation groups the flush actually routed must equal
the model's (no block twice, none missing, none extra) and the standby scan
must equal primary CR at that SCN.

A second, component-level property is metamorphic: the same redo stream
cut into width-1 batches (one ``CVBatch.from_records([r])`` per record)
must leave exactly the journal contents, commit-table order and journal
floor that one wide batch leaves -- a single record really is a batch of
width 1 through the same code.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adg.apply import ApplyDistributor
from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.dbim_adg import (
    DDLInformationTable,
    IMADGCommitTable,
    IMADGJournal,
    MiningComponent,
)
from repro.dbim_adg.flush import InvalidationListener
from repro.redo.batch import CVBatch

from tests.helpers import records_of
from tests.naive_miner import NaiveMiner


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
        # whole-object TRUNCATE: block-level CVs + marker
        st.tuples(st.just("truncate"), st.just(0)),
        # idle slices ship heartbeat/control-only (empty) batches
        st.tuples(st.just("run"), st.integers(1, 20)),
        st.tuples(st.just("check"), st.just(0)),
    ),
    min_size=5,
    max_size=50,
)


def drive(deployment: Deployment, ops) -> None:
    """Apply one generated client history, running the scheduler on
    ``run``/``check``; every open transaction is rolled back and the
    standby caught up at the end."""
    primary = deployment.primary
    ddl_tables = 0
    ids = iter(range(10_000, 100_000))
    rowids: list = []
    txns = [primary.begin()]

    def active():
        if not txns[-1].is_active:
            txns.append(primary.begin())
        return txns[-1]

    for kind, arg in ops:
        if kind == "insert":
            txn = active()
            primary.insert(txn, "T", (next(ids), float(arg), f"v{arg % 7}"))
            rowids.append(txn.changes[-1].rowid)
        elif kind in ("update", "delete") and rowids:
            rowid = rowids[arg % len(rowids)]
            try:
                if kind == "update":
                    primary.update(active(), "T", rowid, {"n1": float(arg) * 2})
                else:
                    primary.delete(active(), "T", rowid)
                    rowids.remove(rowid)
            except Exception:
                # row lock conflict / already deleted: skip, like a client
                continue
        elif kind == "commit":
            primary.commit(active())
        elif kind == "rollback":
            txn = active()
            removed = {c.rowid for c in txn.changes if c.kind.name == "INSERT"}
            primary.rollback(txn)
            rowids[:] = [r for r in rowids if r not in removed]
        elif kind == "new_txn":
            txns.append(primary.begin())
        elif kind == "ddl":
            name = f"T{ddl_tables}"
            ddl_tables += 1
            deployment.create_table(
                TableDef(
                    name,
                    (ColumnDef.number("id", nullable=False),),
                    rows_per_block=4,
                )
            )
            deployment.enable_inmemory(name, service=InMemoryService.BOTH)
        elif kind == "truncate":
            primary.truncate_table("T")
        elif kind == "run":
            deployment.run(arg / 100.0)
        elif kind == "check":
            deployment.run(0.05)
    for txn in txns:
        if txn.is_active:
            primary.rollback(txn)
    deployment.catch_up()


class PublicationChecker(InvalidationListener):
    """Checks both references at every QuerySCN publication.

    Registered as a flush listener (to see the groups the flush routes)
    and as a QuerySCN subscriber (to check at the instant of
    publication).  Violations are collected, not raised: a raise inside
    the publish fan-out would surface as a listener failure instead."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment
        standby = deployment.standby
        self.model = NaiveMiner(standby.imcs.is_enabled)
        self._log = deployment.primary.redo_logs[0].reader()
        #: commitSCN -> {(object, dba): slots} as routed by the flush.
        self.routed: dict[int, dict] = {}
        self.violations: list[str] = []
        self.publications = 0
        standby.flush.add_invalidation_listener(self)
        standby.query_scn.subscribe(self.on_publish)

    def on_group_flushed(self, group) -> None:
        blocks = self.routed.setdefault(group.commit_scn, {})
        for dba, slots in group.blocks.items():
            if (group.object_id, dba) in blocks:
                self.violations.append(
                    f"block {(group.object_id, dba)} routed twice for "
                    f"commitSCN {group.commit_scn}"
                )
            blocks[(group.object_id, dba)] = slots

    def on_publish(self, scn: int) -> None:
        self.publications += 1
        log = self._log
        while log.has_next() and log.peek().scn <= scn:
            self.model.feed(log.next())
        routed = {c: b for c, b in self.routed.items() if c <= scn}
        expected = self.model.due_through(scn)
        if routed != expected:
            self.violations.append(
                f"QuerySCN {scn}: flush routed {routed}, model says {expected}"
            )
        standby = self.deployment.standby
        primary = self.deployment.primary
        for table in list(primary.catalog.tables()):
            if table.name not in standby.catalog:
                continue  # create-table marker not applied yet
            if any(
                part.segment.truncate_scn is not None
                and part.segment.truncate_scn > scn
                for part in table.partitions.values()
            ):
                # TRUNCATE is a non-versioned wipe: the primary can no
                # longer serve a CR below it, so this SCN can't be
                # certified against it
                continue
            rows = sorted(standby.query(table.name).rows)
            cr = sorted(
                values
                for __, values in table.full_scan(scn, primary.txn_table)
            )
            if rows != cr:
                self.violations.append(
                    f"QuerySCN {scn}: standby scan of {table.name} has "
                    f"{len(rows)} rows, primary CR {len(cr)}"
                )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, seed=st.integers(0, 2**20))
def test_flush_matches_naive_miner_at_every_publication(ops, seed):
    deployment = build_deployment(seed)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    checker = PublicationChecker(deployment)
    drive(deployment, ops)
    assert checker.publications > 0
    assert not checker.violations, checker.violations[:3]
    # nothing due is left unflushed, nothing flushed was not due
    final = deployment.standby.query_scn.value
    assert checker.routed == checker.model.due_through(final)


def mine_all(batches, imcs, n_workers=3):
    """Distribute the batches and mine every worker's chunks (worker by
    worker) into a fresh journal / commit table / DDL table."""
    journal = IMADGJournal(16)
    commit_table = IMADGCommitTable(4)
    ddl_table = DDLInformationTable()
    miner = MiningComponent(journal, commit_table, ddl_table, imcs)
    distributor = ApplyDistributor(n_workers)
    distributor.distribute(batches)
    owner = object()
    for worker_id, queue in enumerate(distributor.queues):
        for chunk in queue:
            assert miner.sniff_chunk(chunk, worker_id, owner)
    anchors = {
        xid: (
            anchor.has_begin,
            anchor.prepared,
            anchor.first_scn,
            {
                worker: records_of(anchor, worker)
                for worker in anchor.worker_chunks
            },
        )
        for bucket in journal._buckets
        for xid, anchor in bucket.items()
    }
    commits = [
        (node.xid, node.commit_scn, node.coarse)
        for node in commit_table.chop(10**18)
    ]
    return anchors, commits, journal.min_first_scn(), len(ddl_table)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, seed=st.integers(0, 2**20))
def test_width_one_batches_mine_like_one_wide_batch(ops, seed):
    deployment = build_deployment(seed)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    drive(deployment, ops)
    records = list(deployment.primary.redo_logs[0].records_from(0))
    imcs = deployment.standby.imcs
    wide = mine_all([CVBatch.from_records(records)], imcs)
    narrow = mine_all([CVBatch.from_records([r]) for r in records], imcs)
    assert narrow == wide
