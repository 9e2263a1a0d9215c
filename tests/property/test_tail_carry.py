"""Property: a tail image carried to a newer QuerySCN answers what walking
every row again answers.

A unit's reconcile keeps its tail image; at a newer snapshot it walks only
the rows invalidations named since the image's snapshot, the rows newly
invalid and the edge rows, keeps every other row's answer, and gathers
and patches the image's NUMBER CUs.  The oracle, :class:`FullWalk`, is
the reconcile before that: every invalid and edge row walked at every
query, no image kept.

Hypothesis draws one history and plays it on two identical worlds:
committed updates (some to NULL), re-updates of rows already invalid
(which bump no SMU epoch), updates left open and committed later,
deletes, inserts into a unit's open block (edge rows), whole-block
invalidations, a TRUNCATE wipe, repopulation swaps and checkpoint
restores.  Every invalidation reaches
the units at the commitSCN it announces, as every invalidation site
does.  Queries run serial or as morsels, at the current snapshot or at an
older one (below the image a unit keeps, or a unit's first scan).  After
every query the two answer alike: rows in order, every ``ScanStats``
field, ``cost_seconds`` bit for bit, and the buffer cache's hits and
misses.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import SCNClock, TransactionId
from repro.common.config import IMCSConfig
from repro.imcs import (
    InMemoryColumnStore,
    PopulationEngine,
    Predicate,
    ScanEngine,
)
from repro.imcs.scan import merge_partials
from repro.restart import UnitCheckpoint
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table
from repro.rowstore.buffer_cache import BufferCache


class FullWalk(ScanEngine):
    """The reconcile that walks a unit's whole tail at every query."""

    def _reconcile_unit(
        self, table, segment, smu, snapshot_scn, compiled, result
    ):
        store = segment._store
        blocks = [
            (dba, store.get_optional(dba), slots)
            for dba, slots in smu.invalid_slots_by_dba().items()
        ] + [
            (dba, block, range(captured, block.used_slots))
            for dba, block, captured in smu.imcu.edge_blocks(store)
        ]
        self._fetch_rows(
            table, blocks, snapshot_scn, compiled, result, True, None
        )


class TxnView:
    def __init__(self) -> None:
        self._commits: dict[TransactionId, int] = {}

    def commit(self, xid, scn):
        self._commits[xid] = scn

    def commit_scn_of(self, xid):
        return self._commits.get(xid)


PREDICATES = [
    [],
    [Predicate.lt("n1", 0.0)],
    [Predicate.between("n1", -30.0, 60.0)],
    [Predicate.between("id", 3, 20)],
    [Predicate.eq("c1", "v1")],
    [Predicate.is_null("n1")],
]
PROJECTIONS = [None, ["id"], ["c1", "n1"]]


class World:
    """A cached table of ``n`` rows in blocks of 4, populated in units of
    two blocks, and a scan engine kept for every query: the one under
    test, or the oracle."""

    def __init__(self, n: int, oracle: bool) -> None:
        oid = itertools.count(760)
        self.table = Table(
            "T",
            Schema([
                Column("id", ColumnType.NUMBER, nullable=False),
                Column("n1", ColumnType.NUMBER),
                Column("c1", ColumnType.VARCHAR2),
            ]),
            BlockStore(),
            object_id_allocator=lambda: next(oid), rows_per_block=4,
            buffer_cache=BufferCache(),
        )
        self.segment = self.table.default_partition.segment
        self.clock = SCNClock()
        self.txns = TxnView()
        self.xids = itertools.count(98_000)
        self.rowids = []
        self.store = InMemoryColumnStore()
        self.store.enable(self.table)
        self.oid = self.table.default_partition.object_id
        self.insert(n)
        self.populate(repopulate=False)
        self.table.buffer_cache = BufferCache()  # the first scans read cold
        self.open_writer = self.locked = None
        self.gone: set = set()  # deleted, or wiped by the TRUNCATE
        self.engine = (FullWalk if oracle else ScanEngine)(
            self.store, self.txns
        )

    def invalidate(self, rowids) -> None:
        """The flush of a commit: every row it wrote, at its commitSCN."""
        for rowid in rowids:
            self.store.invalidate(
                self.oid, rowid.dba, (rowid.slot,), self.clock.current
            )

    def insert(self, n: int) -> None:
        xid = TransactionId(1, next(self.xids))
        new = []
        for __ in range(n):
            i = len(self.rowids)
            new.append(self.table.insert_row(
                (i, None if i % 5 == 4 else i * 10.0, f"v{i % 3}"),
                xid, self.clock.next(),
            )[1])
        self.rowids += new
        self.txns.commit(xid, self.clock.next())
        self.invalidate(new)

    def populate(self, repopulate: bool) -> None:
        engine = PopulationEngine(
            self.store, self.txns, lambda: self.clock.current,
            IMCSConfig(imcu_target_rows=8, repopulate_invalid_fraction=0.2),
        )
        if repopulate:
            engine.check_repopulation(now=1.0)
        engine.schedule_all()
        while engine.run_one_task() is not None:
            pass

    def restore_from_checkpoint(self) -> None:
        """Drop every unit and reinstall it from its checkpoint."""
        checkpoints = [
            UnitCheckpoint.capture(smu)
            for smu in self.store.segment(self.oid).live_units()
        ]
        self.store.drop_units(self.oid)
        for unit in checkpoints:
            self.store.restore_unit(
                unit.imcu, unit.invalid_rows, unit.invalid_blocks,
                unit.fully_invalid, unit.last_invalidation_scn,
            )

    def play(self, kind: str, i: int) -> None:
        if kind == "insert":  # edge rows, maybe a block no unit covers
            self.insert(1 + i % 3)
        elif kind == "commit_open":
            if self.open_writer is not None:
                self.txns.commit(self.open_writer, self.clock.next())
                self.invalidate([self.locked])
                self.open_writer = self.locked = None
        elif kind == "repopulate":
            self.populate(repopulate=True)
        elif kind == "checkpoint":
            self.restore_from_checkpoint()
        elif kind == "truncate":  # the wipe, no unit told
            self.segment.truncate(self.clock.next())
            self.gone.update(self.rowids)
        elif kind == "invalidate_block":
            rowid = self.rowids[i % len(self.rowids)]
            self.store.invalidate(self.oid, rowid.dba, (), self.clock.current)
        else:
            self.change(kind, i)

    def change(self, kind: str, i: int) -> None:
        live = [
            r for r in self.rowids if r not in self.gone and r != self.locked
        ]
        if not live:
            return
        if kind == "reupdate":  # a row some unit already holds invalid
            invalid = {
                (dba, slot)
                for smu in self.store.segment(self.oid).live_units()
                for dba, slots in smu.invalid_slots_by_dba().items()
                for slot in slots
            }
            live = [r for r in live if (r.dba, r.slot) in invalid] or live
        rowid = live[i % len(live)]
        xid = TransactionId(1, next(self.xids))
        if kind == "delete":
            self.table.delete_row(rowid, xid, self.clock.next(), self.txns)
            self.gone.add(rowid)
        else:
            self.table.update_row(
                rowid, {"n1": None if i % 7 == 6 else -float(i % 97)}, xid,
                self.clock.next(), self.txns,
            )
            if kind == "update_open" and self.open_writer is None:
                self.open_writer, self.locked = xid, rowid
                return
        self.txns.commit(xid, self.clock.next())
        self.invalidate([rowid])

    def query(self, snapshot, predicates, columns, morsels: bool):
        if morsels:
            return merge_partials([
                morsel.run() for morsel in self.engine.plan_morsels(
                    self.table, snapshot, predicates, columns
                )
            ])
        return self.engine.scan(self.table, snapshot, predicates, columns)


EVENTS = [
    "update", "reupdate", "update_open", "commit_open", "delete", "insert",
    "invalidate_block", "truncate", "repopulate", "checkpoint",
]


def play(data, n, rounds) -> None:
    tested, oracle = World(n, oracle=False), World(n, oracle=True)
    worlds = (tested, oracle)
    snapshots = [tested.clock.current]
    for events, queries in rounds(data):
        for kind, i in events:
            for world in worlds:
                world.play(kind, i)
        snapshots.append(tested.clock.current)
        for predicates, columns, morsels, older in queries:
            snapshot = older(snapshots) if older else snapshots[-1]
            got, expected = (
                world.query(snapshot, predicates, columns, morsels)
                for world in worlds
            )
            assert got.rows == expected.rows
            assert got.stats == expected.stats
            assert (
                got.stats.cost_seconds.hex()
                == expected.stats.cost_seconds.hex()
            )
            assert (
                tested.table.buffer_cache.hits,
                tested.table.buffer_cache.misses,
            ) == (
                oracle.table.buffer_cache.hits,
                oracle.table.buffer_cache.misses,
            )


def drawn_rounds(data):
    for __ in range(data.draw(st.integers(1, 6), label="snapshots")):
        events = data.draw(
            st.lists(
                st.tuples(st.sampled_from(EVENTS), st.integers(0, 10**6)),
                max_size=6,
            ),
            label="events",
        )
        queries = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(PREDICATES),
                    st.sampled_from(PROJECTIONS),
                    st.booleans(),  # as morsels
                    st.booleans(),  # at an older snapshot
                ),
                min_size=1, max_size=3,
            ),
            label="queries",
        )
        yield events, [
            (
                predicates, columns, morsels,
                older and (lambda snapshots: data.draw(
                    st.sampled_from(snapshots), label="older"
                )),
            )
            for predicates, columns, morsels, older in queries
        ]


class Script:
    """A fixed history, as ``rounds``: ``(events, queries)`` per snapshot,
    each query ``(predicates, columns, morsels, back)`` -- ``back`` > 0
    runs it that many snapshots back."""

    def __init__(self, *rounds) -> None:
        self.rounds = rounds

    def __call__(self, data):
        for events, queries in self.rounds:
            yield events, [
                (
                    predicates, columns, morsels,
                    back and (lambda snapshots, k=back: snapshots[-1 - k]),
                )
                for predicates, columns, morsels, back in queries
            ]


FILTER = ([Predicate.lt("n1", 0.0)], ["id", "n1"], False, 0)
#: Histories each seeded mutant of the carry fails on; hypothesis draws
#: more like them.
SCRIPTS = {
    # a row already invalid updated again: no epoch bump, only its entry
    "re-update": Script(
        ([("update", 3)], [FILTER]),
        ([("reupdate", 0)], [FILTER]),
    ),
    # a TRUNCATE between two snapshots, nothing flushed to the units
    "truncate": Script(
        ([("update", 3)], [FILTER]),
        ([("truncate", 0)], [FILTER]),
    ),
    # the carried NUMBER CU filtered after a row it holds changed
    "patch": Script(
        ([("update", 3), ("update", 5)], [FILTER]),  # one unit's rows
        ([("reupdate", 0)], [FILTER]),  # n1 = -0.0: no longer < 0
    ),
    # a morsel at an older snapshot than the image a unit keeps
    "older": Script(
        ([("update", 3)], [FILTER]),
        ([("reupdate", 0)], [FILTER]),
        ([], [(FILTER[0], FILTER[1], True, 2)]),
    ),
    # a unit's first scan at an older snapshot, after an invalidation above
    # it arrived while no image was kept to log it against
    "unlogged": Script(
        ([("update", 3)], [(FILTER[0], FILTER[1], False, 1)]),
        ([], [FILTER]),
    ),
    # an update left open, committed (and flushed) at the next snapshot
    "open": Script(
        ([("update", 5), ("update_open", 5)], [FILTER]),
        ([("commit_open", 0)], [FILTER]),
    ),
    # deletes, inserts into an open block, a block named whole
    "mixed": Script(
        ([("update", 2), ("delete", 7), ("insert", 1)], [FILTER]),
        ([("invalidate_block", 5), ("insert", 0), ("update", 11)], [FILTER]),
        ([("delete", 2), ("update", 13)], [FILTER]),
    ),
    # a repopulation swap and a checkpoint restore between snapshots
    "swap": Script(
        ([("update", 3), ("update", 4), ("update", 5)], [FILTER]),
        ([("repopulate", 0), ("update", 6)], [FILTER]),
        ([("checkpoint", 0), ("reupdate", 0)], [FILTER]),
    ),
}


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_a_carried_image_answers_what_walking_every_row_answers(data):
    play(data, data.draw(st.integers(4, 40), label="n_rows"), drawn_rounds)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_each_scripted_history_answers_alike(name):
    play(None, 24, SCRIPTS[name])
