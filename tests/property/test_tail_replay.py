"""Property: a tail image's repeat pays exactly what walking every block
again paid.

A repeat at a tail image's key skips the buffer-cache touches and the
per-block cost loop: it counts one hit per block and adds the row-cost
addends the build kept, in order.  The loop it replaced lives here as the
oracle, :class:`TouchEveryBlock`: every row-store step touches each block
and adds its row cost, a repeat too; only the Consistent Read walk is
skipped when the step has its image.  It walks every row where the
engine under test carries an image to a newer snapshot.  The oracle also
builds a fresh engine for every query, so it recomputes the blocks no
usable unit covers each time where the engine under test keeps that list.

Hypothesis draws one history and plays it on two identical worlds --
updates committed and left open (each commit flushed at its commitSCN,
as every invalidation site does), deletes, row and block invalidations,
edge rows and fresh blocks, a block the store loses, repopulation swaps,
and several queries per snapshot, serial and as morsels, at the current
snapshot and at older ones.  After every query the two answer alike:
rows in order, every ``ScanStats`` field, ``cost_seconds`` bit for bit,
and the buffer cache's hits and misses.
"""

from __future__ import annotations

import itertools

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
from repro.imcs.scan import (
    ROWSTORE_COST_PER_ROW,
    merge_partials,
    unit_matched_positions,
)
from repro.imcs.smu import NO_ROWS, TailImage
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table
from repro.rowstore.buffer_cache import BufferCache
from repro.rowstore.cr import visible_values_batch


class TouchEveryBlock(ScanEngine):
    """The row-store step before a repeat replayed its charges."""

    def _fetch_rows(
        self, table, blocks, snapshot_scn, compiled, result, fallback,
        carry, image=None,
    ):
        stats = result.stats
        cache = table.buffer_cache
        cost = stats.cost_seconds
        work = []
        for dba, block, slots in blocks:
            if cache is not None:
                cost += cache.touch(dba)
            if block is not None:
                work.append((block, slots))
                cost += ROWSTORE_COST_PER_ROW * len(slots)
        stats.cost_seconds = cost
        if not work:
            return NO_ROWS
        if image is None:
            image = TailImage(
                visible_values_batch(
                    work, snapshot_scn, self.txns, compiled.memo
                ),
                compiled.resolver,
            )
        stats.rowstore_rows += image.slots
        if fallback:
            stats.fallback_rows += image.slots
        if image.n_rows:
            compiled.matches(
                image,
                unit_matched_positions(image, None, compiled.predicates),
                result,
            )
        return image


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
    [Predicate.between("id", 3, 20)],
    [Predicate.eq("c1", "v1")],
]
PROJECTIONS = [None, ["id"], ["c1", "n1"]]


class World:
    """A cached table of ``n`` rows in blocks of 4, populated in units of
    two blocks, and a scan engine: the engine under test, kept for every
    query, or the oracle, a fresh one per query."""

    def __init__(self, n: int, oracle: bool) -> None:
        oid = itertools.count(720)
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
        self.xids = itertools.count(97_000)
        self.rowids = []
        self.insert(n)
        self.store = InMemoryColumnStore()
        self.store.enable(self.table)
        self.oid = self.table.default_partition.object_id
        self.populate(repopulate=False)
        # a cache the load did not warm: the first scans read cold
        self.table.buffer_cache = BufferCache()
        self.open_writer = self.locked = None
        self.deleted: set = set()
        self.lost: set[int] = set()
        self.oracle = oracle
        self.engine = None if oracle else ScanEngine(self.store, self.txns)

    def insert(self, n: int) -> None:
        xid = TransactionId(1, next(self.xids))
        for __ in range(n):
            i = len(self.rowids)
            self.rowids.append(self.table.insert_row(
                (i, i * 10.0, f"v{i % 3}"), xid, self.clock.next()
            )[1])
        self.txns.commit(xid, self.clock.next())

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

    def play(self, kind: str, i: int) -> None:
        if kind == "insert":  # edge rows, maybe a block no unit covers
            self.insert(1 + i % 6)
            return
        if kind == "commit_open":
            if self.open_writer is not None:
                self.txns.commit(self.open_writer, self.clock.next())
                # its flush, at its commitSCN
                self.store.invalidate(
                    self.oid, self.locked.dba, (self.locked.slot,),
                    self.clock.current,
                )
                self.open_writer = self.locked = None
            return
        if kind == "repopulate":
            self.populate(repopulate=True)
            return
        rowid = self.rowids[i % len(self.rowids)]
        if rowid.dba in self.lost or (
            kind in ("update", "update_open", "delete")
            and (rowid in self.deleted or rowid == self.locked)
        ):
            return
        if kind == "invalidate_block":
            self.store.invalidate(self.oid, rowid.dba, (), self.clock.current)
            return
        xid = TransactionId(1, next(self.xids))
        if kind in ("update", "update_open"):
            self.table.update_row(
                rowid, {"n1": -float(i)}, xid, self.clock.next(), self.txns
            )
            if kind == "update" or self.open_writer is not None:
                self.txns.commit(xid, self.clock.next())
            else:
                self.open_writer, self.locked = xid, rowid
        elif kind == "delete":
            self.table.delete_row(rowid, xid, self.clock.next(), self.txns)
            self.txns.commit(xid, self.clock.next())
            self.deleted.add(rowid)
        elif kind == "lose_block":  # the store loses a block, not the last
            if rowid.dba == self.segment.dbas[-1]:
                return
            self.lost.add(rowid.dba)
            del self.segment._store._blocks[rowid.dba]
        # an update's, a delete's or a lost block's invalidation, flushed;
        # or a spurious one ("invalidate"): invalidation is monotone
        self.store.invalidate(
            self.oid, rowid.dba, (rowid.slot,), self.clock.current
        )

    def query(self, snapshot, predicates, columns, morsels: bool):
        engine = (
            TouchEveryBlock(self.store, self.txns) if self.oracle
            else self.engine
        )
        if morsels:
            return merge_partials([
                morsel.run() for morsel in engine.plan_morsels(
                    self.table, snapshot, predicates, columns
                )
            ])
        return engine.scan(self.table, snapshot, predicates, columns)


EVENTS = [
    "update", "update_open", "delete", "invalidate", "invalidate_block",
    "insert", "commit_open", "repopulate", "lose_block",
]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_a_repeat_pays_what_touching_every_block_paid(data):
    n = data.draw(st.integers(4, 40), label="n_rows")
    tested, oracle = World(n, oracle=False), World(n, oracle=True)
    worlds = (tested, oracle)
    snapshots = [tested.clock.current]
    for __ in range(data.draw(st.integers(1, 5), label="snapshots")):
        events = data.draw(
            st.lists(
                st.tuples(st.sampled_from(EVENTS), st.integers(0, 10**6)),
                max_size=5,
            ),
            label="events",
        )
        for kind, i in events:
            for world in worlds:
                world.play(kind, i)
        snapshots.append(tested.clock.current)
        queries = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(PREDICATES),
                    st.sampled_from(PROJECTIONS),
                    st.booleans(),  # as morsels
                    st.booleans(),  # at an older snapshot
                ),
                min_size=1, max_size=4,
            ),
            label="queries",
        )
        for predicates, columns, morsels, older in queries:
            snapshot = (
                data.draw(st.sampled_from(snapshots), label="older")
                if older else snapshots[-1]
            )
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
