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
cut into width-1 batches (one ``log.batch(i, i + 1)`` per record) must
leave exactly the journal contents, commit-table order and journal
floor that one wide batch leaves -- a single record really is a batch of
width 1 through the same code.

A third works on chunks built by hand, so that *one* worker chunk
interleaves data CVs with begin / prepare / commit / abort / DDL marker /
TRUNCATE / UNDO / heartbeat: the miner journals every data CV of a chunk
before it walks the chunk's specials (DESIGN.md section 15, "Live
widths"), and that reordering must leave what mining the same CVs one at a
time leaves.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.adg.apply import ApplyDistributor
from repro.common import TransactionId
from repro.common.config import (
    ApplyConfig,
    IMCSConfig,
    RACConfig,
    SystemConfig,
)
from repro.common.errors import InvalidStateError, ObjectNotFoundError
from repro.db import (
    ColumnDef,
    Deployment,
    InMemoryService,
    PrimaryDatabase,
    TableDef,
)
from repro.db.primary import HeartbeatWriter
from repro.dbim_adg import (
    DDLInformationTable,
    IMADGCommitTable,
    IMADGJournal,
    MiningComponent,
)
from repro.dbim_adg.flush import InvalidationListener
from repro.imcs import InMemoryColumnStore
from repro.redo import (
    CVOp,
    DDLMarkerPayload,
    RedoReceiver,
    ddl_marker_dba,
    truncate_dba,
    txn_table_dba,
)
from repro.redo.batch import CVChunk
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table

from tests.helpers import (
    NullApplier,
    batch_of,
    chunk_of,
    record_scns,
    records_of,
)
from tests.naive_batch import (
    ChangeVector,
    CommitPayload,
    DeletePayload,
    InsertPayload,
    RedoRecord,
    TruncatePayload,
    UndoPayload,
    UpdatePayload,
    from_records,
    record_of_append,
    records_of as batch_records,
)
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
        self._log = deployment.primary.redo_logs[0]
        self._position = 0
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
        __, end = self._log.scn_range(0, scn)
        for record in batch_records(self._log.batch(self._position, end)):
            self.model.feed(record)
        self._position = end
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
@example(
    # a TRUNCATE inside an open transaction: its rollback's UNDO brings the
    # wiped block back on the primary, the next insert lands in it, and a
    # standby worker that applies that insert before the TRUNCATE must
    # still wipe the committed row beside it (per version, not per block)
    ops=[
        ("insert", 0), ("commit", 0), ("insert", 0), ("truncate", 0),
        ("rollback", 0), ("insert", 0),
    ],
    seed=0,
)
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
    distributor = ApplyDistributor(n_workers, NullApplier())
    distributor.distribute(batches)
    return mine_chunks(distributor.queues, imcs)


class Stack:
    """A fresh journal / commit table / DDL table and their miner."""

    def __init__(self, imcs) -> None:
        self.journal = IMADGJournal()
        self.commit_table = IMADGCommitTable(4)
        self.ddl_table = DDLInformationTable()
        self.miner = MiningComponent(
            self.journal, self.commit_table, self.ddl_table, imcs
        )

    def mined(self):
        """Everything mining leaves behind, in comparable form.

        Commit-table nodes compare in ``(commit_scn, xid)`` order: order
        among *equal* commitSCNs is unobservable (``chop(up_to)`` takes
        ties together; flushing is idempotent and monotone).  A real primary
        allocates an SCN per commit; ``streams()`` can put two commits in
        one record, i.e. at one SCN."""
        anchors = {
            xid: (
                anchor.has_begin,
                anchor.first_scn,
                {
                    worker: records_of(anchor, worker)
                    for worker in anchor.worker_chunks
                },
            )
            for xid, anchor in self.journal._anchors.items()
        }
        floor = self.journal.min_first_scn()
        commits = sorted(
            (node.commit_scn, node.xid, node.coarse, node.anchor is not None)
            for node in self.commit_table.chop(10**18)
        )
        return anchors, commits, floor, len(self.ddl_table)


def mine_chunks(queues, imcs):
    """Mine every worker's chunks, worker by worker."""
    stack = Stack(imcs)
    for worker_id, queue in enumerate(queues):
        for chunk in queue:
            stack.miner.sniff_chunk(chunk, worker_id)
    return stack.mined()


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
    log = deployment.primary.redo_logs[0]
    imcs = deployment.standby.imcs
    wide = mine_all([log.batch(0, len(log))], imcs)
    narrow = mine_all([log.batch(i, i + 1) for i in range(len(log))], imcs)
    assert narrow == wide


# ----------------------------------------------------------------------
# hand-built chunks: data interleaved with every kind of special
# ----------------------------------------------------------------------
ENABLED, NOT_ENABLED = 900, 902
SYSTEM = TransactionId(1, 0)


def enabled_store() -> InMemoryColumnStore:
    store = InMemoryColumnStore()
    store.enable(
        Table(
            "T",
            Schema([Column("id", ColumnType.NUMBER, nullable=False)]),
            BlockStore(),
            object_id_allocator=lambda: ENABLED,
        )
    )
    return store


def control(op, xid):
    return lambda scn: ChangeVector(op, txn_table_dba(1), 0, 0, xid)


def commit(xid, flag):
    return lambda scn: ChangeVector(
        CVOp.TXN_COMMIT, txn_table_dba(1), 0, 0, xid, CommitPayload(scn, flag)
    )


@st.composite
def data_cv(draw, xid):
    object_id = draw(st.sampled_from([ENABLED, ENABLED, ENABLED, NOT_ENABLED]))
    dba, slot = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    op, payload = draw(
        st.sampled_from(
            [
                (CVOp.INSERT, InsertPayload(slot, ())),
                (CVOp.UPDATE, UpdatePayload(slot, (), ())),
                (CVOp.DELETE, DeletePayload(slot, ())),
            ]
        )
    )
    return lambda scn: ChangeVector(op, dba, object_id, 0, xid, payload)


@st.composite
def streams(draw) -> list[RedoRecord]:
    """One redo thread: a few transactions' scripts -- [begin] data*
    [prepare] (commit | abort undo* | still open) -- merged at random with
    DDL markers, TRUNCATEs and heartbeats, each script in its own order
    (so no data CV follows its transaction's commit or abort), cut into
    records of 1-3 CVs."""
    scripts = []
    for sequence in range(1, draw(st.integers(1, 5)) + 1):
        xid = TransactionId(1, sequence)
        script = []
        if draw(st.integers(0, 4)):  # mostly: a missing begin is III-E
            script.append(control(CVOp.TXN_BEGIN, xid))
        script += draw(st.lists(data_cv(xid), max_size=6))
        ending = draw(
            st.sampled_from(["commit", "commit", "prepared", "abort", "open"])
        )
        if ending == "prepared":
            script.append(control(CVOp.TXN_PREPARE, xid))
        if ending in ("commit", "prepared"):
            flag = draw(st.sampled_from([True, False, None]))
            script.append(commit(xid, flag))
        elif ending == "abort":
            script.append(control(CVOp.TXN_ABORT, xid))
            script += [
                lambda scn, xid=xid: ChangeVector(
                    CVOp.UNDO, 1, ENABLED, 0, xid, UndoPayload(0)
                )
            ] * draw(st.integers(0, 2))
        scripts.append(script)
    for kind in draw(
        st.lists(st.sampled_from(["ddl", "truncate", "heartbeat"]), max_size=4)
    ):
        if kind == "ddl":
            payload = DDLMarkerPayload("drop_column", (ENABLED,), "T")
            scripts.append(
                [
                    lambda scn, payload=payload: ChangeVector(
                        CVOp.DDL_MARKER, ddl_marker_dba(ENABLED), ENABLED, 0,
                        SYSTEM, payload,
                    )
                ]
            )
        elif kind == "truncate":
            scripts.append(
                [
                    lambda scn: ChangeVector(
                        CVOp.TRUNCATE, truncate_dba(ENABLED), ENABLED, 0,
                        SYSTEM, TruncatePayload(ENABLED),
                    )
                ]
            )
        else:
            scripts.append([control(CVOp.HEARTBEAT, SYSTEM)])
    order = draw(
        st.permutations(
            [i for i, script in enumerate(scripts) for __ in script]
        )
    )
    cursors = [iter(script) for script in scripts]
    makers = [next(cursors[i]) for i in order]
    records, scn = [], 100
    while makers:
        scn += 1
        width = draw(st.integers(1, 3))
        records.append(
            RedoRecord(scn, 1, tuple(make(scn) for make in makers[:width]))
        )
        makers = makers[width:]
    return records


def counters(miner) -> dict:
    return {
        name: getattr(miner, name)
        for name in (
            "data_records_mined",
            "control_records_mined",
            "ddl_markers_mined",
            "coarse_nodes_created",
            "tail_commits_skipped",
        )
    }


def mine_as_worker_0(chunks, imcs, tail_mode=False):
    """Mine ``chunks`` as worker 0."""
    stack = Stack(imcs)
    stack.miner.tail_mode = tail_mode
    for chunk in chunks:
        stack.miner.sniff_chunk(chunk, 0)
    return stack.mined(), counters(stack.miner)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(records=streams(), tail_mode=st.booleans())
def test_a_chunk_interleaving_data_and_specials_mines_like_width_one(
    records, tail_mode
):
    """Data before specials inside one chunk is unobservable: the same
    anchors (begin flag, first SCN, records in SCN order), the
    same commit-table nodes (coarse or not, pointing at an anchor or not),
    the same journal floor, DDL table and counters as one chunk per CV."""
    if not records:
        return
    imcs = enabled_store()
    wide, wide_counts = mine_as_worker_0([chunk_of(records)], imcs, tail_mode)
    narrow, narrow_counts = mine_as_worker_0(
        [
            chunk_of([RedoRecord(r.scn, r.thread, (cv,))])
            for r in records
            for cv in r.cvs
        ],
        imcs,
        tail_mode,
    )
    assert wide == narrow
    assert wide_counts == narrow_counts
    # ...and TRUNCATE's block wipe is never journaled (it would anchor
    # under the system xid, which never commits)
    assert SYSTEM not in wide[0]


X1, X2, X4 = (TransactionId(1, sequence) for sequence in (1, 2, 4))


def record(scn, *makers):
    return RedoRecord(scn, 1, tuple(make(scn) for make in makers))


def update(xid, dba, slot, object_id=ENABLED):
    return lambda scn: ChangeVector(
        CVOp.UPDATE, dba, object_id, 0, xid, UpdatePayload(slot, (), ())
    )


# -- one named test per edge -------------------------------------------

def test_reset_mining_clears_the_data_done_mark():
    """Instance restart: the journal is gone, so what a chunk has not yet
    applied is mined again -- data CVs included, applied ones excluded."""
    imcs = enabled_store()
    chunk = chunk_of(
        [
            record(101, control(CVOp.TXN_BEGIN, X1), update(X1, 1, 0)),
            record(102, update(X1, 1, 1), update(X1, 2, 2)),
        ]
    )
    stack = Stack(imcs)
    stack.miner.sniff_chunk(chunk, 0)
    chunk.mined = True  # what the worker marks after the sniff
    chunk.pos = 2  # the begin and the first update are applied
    stack.journal.clear()
    chunk.reset_mining()
    assert not chunk.mined
    stack.miner.sniff_chunk(chunk, 0)
    anchor = stack.journal.get(X1)
    assert [(r.dba, r.slots, r.scn) for r in records_of(anchor)] == [
        (1, (1,), 102),
        (2, (2,), 102),
    ]
    assert not anchor.has_begin  # the begin was applied before the restart
    assert anchor.first_scn == 102


def test_transactions_of_one_chunk_do_not_share_records():
    """Each anchor gets its own slice of the chunk's one gather."""
    imcs = enabled_store()
    chunk = chunk_of(
        [
            record(101, update(X2, 3, 0), update(X1, 1, 0)),
            record(102, update(X1, 1, 1), update(X2, 3, 1)),
            record(103, update(X1, 2, 2)),
        ]
    )
    stack = Stack(imcs)
    stack.miner.sniff_chunk(chunk, 0)
    mined = {
        xid: [(r.dba, r.slots, r.scn) for r in records_of(anchor)]
        for xid, anchor in stack.journal._anchors.items()
    }
    assert mined == {
        X1: [(1, (0,), 101), (1, (1,), 102), (2, (2,), 103)],
        X2: [(3, (0,), 101), (3, (1,), 102)],
    }
    assert stack.miner.data_records_mined == 5
    assert stack.journal.min_first_scn() == 101


def test_an_abort_discards_data_mined_earlier_in_the_same_call():
    imcs = enabled_store()
    chunk = chunk_of(
        [
            record(101, control(CVOp.TXN_BEGIN, X1), update(X1, 1, 0)),
            record(102, update(X2, 1, 1), control(CVOp.TXN_ABORT, X1)),
        ]
    )
    stack = Stack(imcs)
    aborted = []
    stack.miner.on_abort = lambda xid, scn: aborted.append((xid, scn))
    stack.miner.sniff_chunk(chunk, 0)
    assert aborted == [(X1, 102)]
    assert stack.journal.get(X1) is None
    assert stack.journal.anchor_count == 1  # X2's
    assert stack.journal.min_first_scn() == 102


@pytest.mark.parametrize("cut", [None, 0, 1, 2, 3, 4])
def test_the_lifecycle_tracer_sees_every_cv_of_a_chunk_once(cut):
    """Mined as one chunk (``cut`` None) or as two, cut after CV ``cut``
    -- between a begin and its data, data and a heartbeat, data and its
    commit -- the tracer is told of every CV once."""
    imcs = enabled_store()
    records = [
        record(101, control(CVOp.TXN_BEGIN, X1), update(X1, 1, 0)),
        record(102, control(CVOp.HEARTBEAT, SYSTEM)),
        record(103, update(X2, 1, 1, NOT_ENABLED), update(X1, 1, 1)),
        record(104, commit(X1, True)),
    ]
    seen = []
    stack = Stack(imcs)
    stack.miner._obs = SimpleNamespace(
        tracer=SimpleNamespace(record_mined=seen.append)
    )
    batch = batch_of(records)
    positions = np.arange(batch.n_cvs, dtype=np.int64)
    cuts = [positions] if cut is None else np.split(positions, [cut + 1])
    for part in cuts:
        stack.miner.sniff_chunk(CVChunk(batch, part), 0)
    assert sorted(seen) == [101, 101, 102, 103, 103, 104]


# ----------------------------------------------------------------------
# the columnar log against the representation it displaced
# ----------------------------------------------------------------------
def record_appends(log) -> list[RedoRecord]:
    """Keep, as objects, every record ``log`` is given from now on (its
    one append entry is the only way in)."""
    records: list[RedoRecord] = []
    real = log.append

    def append(thread, scn, cvs):
        real(thread, scn, cvs)
        records.append(record_of_append(thread, scn, cvs))

    log.append = append
    return records


def assert_same_batch(batch, oracle) -> None:
    """Column for column, payloads included."""
    assert (batch.thread, batch.cv_base) == (oracle.thread, oracle.cv_base)
    for name in (
        "scns", "dbas", "object_ids", "ops", "xids", "tenants", "slots",
        "record_starts", "record_scns",
    ):
        ours, theirs = getattr(batch, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.tolist() == theirs.tolist(), name
    for name in ("xid_objects", "rows", "payloads"):
        assert getattr(batch, name) == getattr(oracle, name), name


PRIMARY_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert", "insert", "update", "update", "delete", "commit",
                "rollback", "prepare", "truncate", "ddl", "heartbeat",
            ]
        ),
        st.sampled_from([1, 2]),
        st.integers(0, 50),
    ),
    min_size=1,
    max_size=60,
)


def drive_primary(ops):
    """A two-instance primary run through ``ops``; returns it and, per
    thread, the records its log was given."""
    primary = PrimaryDatabase(
        SystemConfig(rac=RACConfig(primary_instances=2))
    )
    recorded = [record_appends(log) for log in primary.redo_logs]
    primary.create_table(
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
    primary.enable_inmemory("T")
    heartbeats = {
        inst.instance_id: HeartbeatWriter(
            inst.instance_id, primary.clock, inst.redo_log
        )
        for inst in primary.instances
    }
    txns = {1: primary.begin(instance_id=1), 2: primary.begin(instance_id=2)}
    rowids: list = []
    ids = iter(range(10_000, 100_000))
    created = 0
    for step, (kind, thread, arg) in enumerate(ops):
        if not txns[thread].is_active:
            txns[thread] = primary.begin(instance_id=thread)
        txn = txns[thread]
        try:
            if kind == "insert":
                rowids.append(
                    primary.insert(
                        txn, "T", (next(ids), float(arg), f"v{arg % 7}")
                    )
                )
            elif kind == "update" and rowids:
                primary.update(
                    txn, "T", rowids[arg % len(rowids)], {"n1": arg * 2.0}
                )
            elif kind == "delete" and rowids:
                primary.delete(txn, "T", rowids.pop(arg % len(rowids)))
            elif kind == "commit":
                primary.commit(txn)
            elif kind == "rollback":
                gone = {c.rowid for c in txn.changes if c.kind is CVOp.INSERT}
                primary.rollback(txn)
                rowids[:] = [r for r in rowids if r not in gone]
            elif kind == "prepare":
                primary.manager_of(txn).prepare(txn)
            elif kind == "truncate":
                primary.truncate_table("T")
                rowids.clear()
            elif kind == "ddl":
                created += 1
                primary.create_table(
                    TableDef(
                        f"T{created}",
                        (ColumnDef.number("id", nullable=False),),
                    )
                )
            elif kind == "heartbeat":
                heartbeats[thread].step(SimpleNamespace(now=float(step)))
        except (ObjectNotFoundError, InvalidStateError):
            continue  # wiped or locked row: skip, like a client
    return primary, recorded


def test_every_kind_of_record_slices_like_its_object():
    """One fixed history that writes every op the primary can -- begin +
    insert / update / delete, prepare, commit (flag True), UNDOs + abort,
    TRUNCATE, DDL marker, heartbeat -- compared whole and record by
    record, so the random property below can spend its examples on cuts."""
    ops = [
        ("insert", 1, 3), ("insert", 1, 4), ("insert", 2, 5),
        ("update", 1, 0), ("delete", 1, 1), ("prepare", 1, 0),
        ("commit", 1, 0), ("update", 2, 0), ("rollback", 2, 0),
        ("heartbeat", 2, 0), ("ddl", 1, 0), ("insert", 2, 6),
        ("commit", 2, 0), ("truncate", 1, 0), ("heartbeat", 1, 0),
    ]
    primary, recorded = drive_primary(ops)
    seen = set()
    for log, records in zip(primary.redo_logs, recorded):
        assert_same_batch(log.batch(0, len(log)), from_records(records))
        base = 0
        for i, record in enumerate(records):
            assert_same_batch(
                log.batch(i, i + 1), from_records([record], base)
            )
            base += len(record.cvs)
            seen.update(cv.op for cv in record.cvs)
    assert seen == set(CVOp)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=PRIMARY_OPS, cuts=st.data())
def test_log_slices_equal_the_transpose_of_the_records_it_was_given(ops, cuts):
    """The real primary writes columns; the oracle rebuilds the record
    objects each ``append`` call describes and transposes them the way
    the shipper used to.  Any ``log.batch(lo, hi)`` -- a shipment, a FAL
    fetch, a restart tail -- and everything cut from it downstream
    (``slice_records``, ``split_at_scn``, the receiver's duplicate-prefix
    discard, a FAL heal) must equal the oracle's, column for column."""
    primary, recorded = drive_primary(ops)
    for log, records in zip(primary.redo_logs, recorded):
        n = len(log)
        assert n == len(records)
        bases = [0]
        for record in records:
            bases.append(bases[-1] + len(record.cvs))

        def oracle(lo, hi):
            return from_records(records[lo:hi], bases[min(lo, n)])

        if n:
            assert_same_batch(log.batch(0, n), oracle(0, n))
        lo = cuts.draw(st.integers(0, n), label="lo")
        hi = cuts.draw(st.integers(lo, n + 2), label="hi")
        batch, model = log.batch(lo, hi), oracle(lo, hi)
        if lo < min(hi, n):
            assert_same_batch(batch, model)
        else:
            assert batch.n_records == batch.n_cvs == 0
        width = batch.n_records
        a = cuts.draw(st.integers(0, width), label="a")
        b = cuts.draw(st.integers(a, width), label="b")
        if a < b:
            assert_same_batch(
                batch.slice_records(a, b), model.slice_records(a, b)
            )
        if width:
            scn = cuts.draw(
                st.sampled_from(batch.record_scns.tolist()), label="scn"
            )
            for ours, theirs in zip(
                batch.split_at_scn(scn), model.split_at_scn(scn)
            ):
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    assert_same_batch(ours, theirs)
        if n < 2:
            continue
        # a redelivery overlapping what landed, then a shipment past a
        # gap the receiver FAL-heals: same batches land either way
        k = cuts.draw(st.integers(1, n - 1), label="landed")
        j = cuts.draw(st.integers(0, k - 1), label="redelivered from")
        m = cuts.draw(st.integers(k, n - 1), label="resumes at")
        landed = []
        for fetch in (log.batch, oracle):
            receiver = RedoReceiver(
                fal_fetch=lambda thread, lo, hi, fetch=fetch: fetch(lo, hi)
            )
            receiver.register_thread(log.thread)
            receiver.deliver(fetch(0, k), position=0)
            receiver.deliver(fetch(j, k), position=j)
            receiver.deliver(fetch(m, n), position=m)
            assert receiver.duplicates_discarded == k - j
            assert receiver.expected_position(log.thread) == n
            landed.append(list(receiver.queue(log.thread)))
        assert record_scns(landed[0]) == [r.scn for r in records]
        assert len(landed[0]) == len(landed[1])
        for ours, theirs in zip(*landed):
            assert_same_batch(ours, theirs)
