"""The Mining Component's plain-Python chunk pass against the numpy pass it
displaced (``tests/numpy_miner.py``).

Both miners see the same worker chunks, in the same order, under the same
IMCS-enabled set, and must leave exactly the same state behind:

* per anchor, in journal order: tenant, begin / prepared flags, first
  SCN and, per worker in append order, every ``RecordChunk``'s columns
  and tenant;
* the journal's floor heap as pushed, and its floor;
* the commit table's nodes in chop order (partition, then insertion);
* the DDL table, the abort hook's calls, the miners' counters
  (``data_records_mined``, ``coarse_nodes_created``, ...) and the
  journal's ``anchors_created``;
* the lifecycle tracer's mined stamps, in order.

The histories are generated from a seed (hypothesis draws the seed, the
chunk width from 1 to 600 CVs, the worker count and the tail mode): a
redo thread of interleaved transaction scripts over two enabled objects
and one that never is, with DDL markers, TRUNCATEs, heartbeats and UNDO
in between.  Between chunks the second object may be disabled or enabled
again; one chunk may be reset mid-way (an instance restart after part of
it applied).  A last check applies every chunk through
``RecoveryWorker._apply`` and ``PhysicalApplier.apply_cv`` and requires
the calls they make to be the ones the written records describe.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.adg.apply import ApplyDistributor, RecoveryWorker
from repro.common import TransactionId
from repro.db.applier import PhysicalApplier
from repro.dbim_adg import (
    DDLInformationTable,
    IMADGCommitTable,
    IMADGJournal,
    MiningComponent,
)
from repro.imcs import InMemoryColumnStore
from repro.redo import (
    CVOp,
    DDLMarkerPayload,
    ddl_marker_dba,
    truncate_dba,
    txn_table_dba,
)
from repro.redo.batch import CVChunk
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table

from tests.helpers import NullApplier
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
)
from tests.numpy_miner import NumpyMiningComponent

#: A and B are in the store (B comes and goes between chunks); C never is.
A, B, C = 900, 901, 902
SYSTEM = TransactionId(1, 0)


def table(name: str, object_id: int) -> Table:
    return Table(
        name,
        Schema([Column("id", ColumnType.NUMBER, nullable=False)]),
        BlockStore(),
        object_id_allocator=lambda: object_id,
    )


# ----------------------------------------------------------------------
# histories
# ----------------------------------------------------------------------
def data_cv(rng: random.Random, xid: TransactionId, tenant: int):
    object_id = rng.choice((A, A, B, B, C))
    dba, slot = rng.randint(1, 8), rng.randint(0, 5)
    op, payload = rng.choice(
        (
            (CVOp.INSERT, InsertPayload(slot, (slot,))),
            (CVOp.UPDATE, UpdatePayload(slot, (slot,), ("id",))),
            (CVOp.DELETE, DeletePayload(slot, (slot,))),
        )
    )
    return lambda scn: ChangeVector(op, dba, object_id, tenant, xid, payload)


def control(op: CVOp, xid: TransactionId, tenant: int = 0):
    return lambda scn: ChangeVector(op, txn_table_dba(1), 0, tenant, xid)


def transaction(rng: random.Random, xid: TransactionId) -> list:
    """[begin] data* [prepare] (commit | abort undo* | still open)."""
    tenant = rng.choice((0, 1))
    script = []
    if rng.random() < 0.8:  # a missing begin is III-E
        script.append(control(CVOp.TXN_BEGIN, xid, tenant))
    script += [data_cv(rng, xid, tenant) for __ in range(rng.randint(0, 12))]
    ending = rng.choice(("commit", "commit", "prepared", "abort", "open"))
    if ending == "prepared":
        script.append(control(CVOp.TXN_PREPARE, xid, tenant))
    if ending in ("commit", "prepared"):
        flag = rng.choice((True, False, None))
        script.append(
            lambda scn: ChangeVector(
                CVOp.TXN_COMMIT, txn_table_dba(1), 0, tenant, xid,
                CommitPayload(scn, flag),
            )
        )
    elif ending == "abort":
        script.append(control(CVOp.TXN_ABORT, xid, tenant))
        for __ in range(rng.randint(0, 2)):
            object_id, dba, slot = rng.choice((A, B)), rng.randint(1, 8), 0
            script.append(
                lambda scn, o=object_id, d=dba, s=slot: ChangeVector(
                    CVOp.UNDO, d, o, tenant, xid, UndoPayload(s)
                )
            )
    return script


def other(rng: random.Random) -> list:
    """A DDL marker, a TRUNCATE or a heartbeat."""
    object_id = rng.choice((A, B))
    kind = rng.choice(("ddl", "truncate", "heartbeat"))
    if kind == "ddl":
        payload = DDLMarkerPayload("drop_column", (object_id,), "T")
        return [
            lambda scn: ChangeVector(
                CVOp.DDL_MARKER, ddl_marker_dba(object_id), object_id, 0,
                SYSTEM, payload,
            )
        ]
    if kind == "truncate":
        return [
            lambda scn: ChangeVector(
                CVOp.TRUNCATE, truncate_dba(object_id), object_id, 0, SYSTEM,
                TruncatePayload(object_id),
            )
        ]
    return [control(CVOp.HEARTBEAT, SYSTEM)]


def history(rng: random.Random, n_cvs: int) -> list[RedoRecord]:
    """About ``n_cvs`` CVs of one redo thread: transaction scripts (xids
    from two instances, so code order is not arrival order) and other
    CVs, merged at random with each script in its own order, cut into
    records of 1-3 CVs."""
    scripts, total, sequence = [], 0, rng.randrange(1, 10**6)
    while total < n_cvs:
        if rng.random() < 0.15:
            script = other(rng)
        else:
            sequence += rng.randint(1, 1000)
            xid = TransactionId(rng.choice((1, 2)), sequence)
            script = transaction(rng, xid)
        scripts.append(script)
        total += len(script)
    order = [i for i, script in enumerate(scripts) for __ in script]
    rng.shuffle(order)
    cursors = [iter(script) for script in scripts]
    makers = [next(cursors[i]) for i in order]
    records, scn = [], 100
    while makers:
        scn += 1
        width = rng.randint(1, 3)
        records.append(
            RedoRecord(scn, 1, tuple(make(scn) for make in makers[:width]))
        )
        makers = makers[width:]
    return records


def shipments(records: list[RedoRecord], width: int) -> list[list]:
    """Cut on record boundaries into runs of at least ``width`` CVs."""
    out, run, cvs = [], [], 0
    for record in records:
        run.append(record)
        cvs += len(record.cvs)
        if cvs >= width:
            out.append(run)
            run, cvs = [], 0
    if run:
        out.append(run)
    return out


def worker_chunks(records, width, n_workers):
    """``(worker, batch, positions)`` in mining order: shipment by
    shipment, each worker's chunk of it."""
    out, cv_base = [], 0
    for run in shipments(records, width):
        batch = from_records(run, cv_base)
        cv_base += batch.n_cvs
        distributor = ApplyDistributor(n_workers, NullApplier())
        distributor.distribute([batch])
        for worker, queue in enumerate(distributor.queues):
            for chunk in queue:
                out.append((worker, batch, np.array(chunk.indices)))
    return out


# ----------------------------------------------------------------------
# the two miners, side by side
# ----------------------------------------------------------------------
class Side:
    """One miner with its own journal, tables, tracer and abort hook."""

    def __init__(self, miner_cls, store) -> None:
        self.journal = IMADGJournal()
        self.commit_table = IMADGCommitTable(4)
        self.ddl_table = DDLInformationTable()
        self.miner = miner_cls(
            self.journal, self.commit_table, self.ddl_table, store
        )
        self.stamps: list[int] = []
        self.aborts: list = []
        self.miner._obs = SimpleNamespace(
            tracer=SimpleNamespace(record_mined=self.stamps.append)
        )
        self.miner.on_abort = lambda xid, scn: self.aborts.append((xid, scn))

    def restart(self) -> None:
        self.journal.clear()
        self.commit_table.clear()
        self.ddl_table.clear()

    def left(self) -> dict:
        """Everything mining left behind."""
        journal, miner = self.journal, self.miner
        anchors = [
            (
                xid,
                anchor.tenant,
                anchor.has_begin,
                anchor.first_scn,
                [
                    (
                        worker,
                        [
                            (chunk.columns.tolist(), chunk.tenant)
                            for chunk in chunks
                        ],
                    )
                    for worker, chunks in anchor.worker_chunks.items()
                ],
            )
            for xid, anchor in journal._anchors.items()
        ]
        floor_heap = list(journal._floor_heap)
        return {
            "anchors": anchors,
            "floor_heap": floor_heap,
            "floor": journal.min_first_scn(),
            "commits": [
                (
                    node.commit_scn,
                    node.xid,
                    node.tenant,
                    node.coarse,
                    None if node.anchor is None else node.anchor.xid,
                )
                for node in self.commit_table.chop(10**18)
            ],
            "ddl": [
                (entry.scn, entry.payload)
                for entry in self.ddl_table.take_through(10**18)
            ],
            "aborts": self.aborts,
            "stamps": self.stamps,
            "anchors_created": journal.anchors_created,
            "counters": {
                name: getattr(miner, name)
                for name in (
                    "data_records_mined",
                    "control_records_mined",
                    "ddl_markers_mined",
                    "coarse_nodes_created",
                    "tail_commits_skipped",
                )
            },
        }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 600),
    n_workers=st.integers(1, 3),
    tail_mode=st.booleans(),
)
@example(seed=7, width=1, n_workers=2, tail_mode=False)
@example(seed=7, width=7, n_workers=3, tail_mode=False)
@example(seed=31, width=85, n_workers=1, tail_mode=True)
@example(seed=7, width=600, n_workers=2, tail_mode=False)
def test_the_plain_python_pass_leaves_what_the_numpy_pass_leaves(
    seed, width, n_workers, tail_mode
):
    rng = random.Random(seed)
    records = history(rng, width * rng.randint(1, 3))
    chunks = worker_chunks(records, width, n_workers)
    # B toggles before some chunks; one chunk restarts after a prefix applied
    toggles = {k for k in range(len(chunks)) if rng.random() < 0.2}
    reset = rng.randrange(len(chunks)) if rng.random() < 0.5 else None
    store, table_b = InMemoryColumnStore(), table("B", B)
    store.enable(table("A", A))
    store.enable(table_b)
    sides = [
        Side(cls, store) for cls in (MiningComponent, NumpyMiningComponent)
    ]
    for side in sides:
        side.miner.tail_mode = tail_mode
    for k, (worker, batch, positions) in enumerate(chunks):
        if k in toggles:
            if store.is_enabled(B):
                store.disable(B)
            else:
                store.enable(table_b)
        applied = rng.randint(0, len(positions))
        for side in sides:
            chunk = CVChunk(batch, positions)
            side.miner.sniff_chunk(chunk, worker)
            if k == reset:
                chunk.pos = applied
                side.restart()
                chunk.reset_mining()
                side.miner.sniff_chunk(chunk, worker)
    plain, oracle = (side.left() for side in sides)
    assert plain == oracle


# ----------------------------------------------------------------------
# apply reads the same lists
# ----------------------------------------------------------------------
class Calls:
    """A catalog, table and transaction table in one: every call is
    logged as ``(name, *args)`` and returns the recorder itself."""

    def __init__(self) -> None:
        self.log: list[tuple] = []

    def __getattr__(self, name):
        def call(*args):
            self.log.append((name, *args))
            return self

        return call


def expected_calls(scn: int, cv: ChangeVector) -> list[tuple]:
    """What applying ``cv`` at ``scn`` must call, from the record object."""
    op, xid, payload = cv.op, cv.xid, cv.payload
    if op in (CVOp.HEARTBEAT, CVOp.DDL_MARKER):
        return []
    if op is CVOp.TXN_BEGIN:
        return [("ensure_known", xid)]
    if op is CVOp.TXN_PREPARE:
        return [("ensure_known", xid), ("prepare", xid)]
    if op is CVOp.TXN_COMMIT:
        return [("commit", xid, scn)]
    if op is CVOp.TXN_ABORT:
        return [("abort", xid)]
    table_call = ("table_for_object", cv.object_id)
    if op is CVOp.TRUNCATE:
        return [table_call, ("apply_truncate", cv.object_id, scn)]
    head = (cv.object_id, cv.dba, payload.slot)
    if op is CVOp.INSERT:
        call = ("apply_insert", *head, payload.values, xid, scn)
    elif op is CVOp.UPDATE:
        call = (
            "apply_update", *head, payload.new_values,
            payload.changed_columns, xid, scn,
        )
    elif op is CVOp.DELETE:
        call = ("apply_delete", *head, payload.old_values, xid, scn)
    else:
        call = ("apply_undo", *head, xid, scn)
    return [table_call, call]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 600),
    n_workers=st.integers(1, 3),
    budget=st.integers(1, 64),
)
def test_apply_reads_what_the_records_say(seed, width, n_workers, budget):
    rng = random.Random(seed)
    records = history(rng, width)
    written = [
        (record.scn, cv) for record in records for cv in record.cvs
    ]
    calls = Calls()
    distributor = ApplyDistributor(n_workers, NullApplier())
    worker = RecoveryWorker(0, distributor, PhysicalApplier(calls, calls))
    for __, batch, positions in worker_chunks(records, width, n_workers):
        chunk = CVChunk(batch, positions)
        while len(chunk):
            calls.log.clear()
            window = chunk.indices[chunk.pos : chunk.pos + budget]
            assert worker._apply(chunk, budget, None) == len(window)
            assert calls.log == [
                call
                for i in window
                for call in expected_calls(*written[batch.cv_base + i])
            ]
            assert worker.applied_scn == written[batch.cv_base + window[-1]][0]
