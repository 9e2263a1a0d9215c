"""Property: a delta-built unit equals the full build at the same snapshot.

``IMCU.build(base=smu)`` gathers every row the outgoing unit's SMU still
holds valid out of that unit's encoded buffers and reads only what a scan
would reconcile; ``IMCU.build(base=None)`` reads everything and is the
oracle, with ``tests/naive_imcu.py`` behind it.  Hypothesis drives random
histories over a small table through the standby's physical apply API --
updates, deletes, inserts filling edge blocks, rollbacks leaving holes,
writers left uncommitted and committed generations later, block-level and
over-invalidation, NULL / int / float mixes, an expression of each kind,
a high-cardinality and a run-shaped column -- and repopulates for several
generations (a delta of a delta of a delta)
through the real store, so ``register_unit`` / ``_carry_invalidations``
run on delta-built units too.  Every generation requires identical units
(addresses, captured slots, CU class, encoded buffers byte for byte,
dictionaries, storage index, footprint) and a scan equal to primary CR.

The named tests below are the edges of DESIGN, "Delta repopulation".
"""

from __future__ import annotations

import bisect
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import SnapshotTooOldError, TransactionId
from repro.common.config import IMCSConfig
from repro.imcs import compression
from repro.imcs import imcu as imcu_module
from repro.imcs import (
    IMCU,
    InMemoryColumnStore,
    PopulationEngine,
    ScanEngine,
)
from repro.imcs.expressions import Expression
from repro.rowstore import BlockStore, Table
from repro.rowstore.cr import settled_rows

from tests.helpers import cu_buffers, cu_dictionary, unit_covering
from tests.naive_imcu import naive_build
from tests.naive_versions import chain_of
from tests.property.test_population_columnar import (
    EXPRESSIONS,
    NUMBER_POOLS,
    SCHEMA,
    STRINGS,
    assert_same_unit,
)

ROWS_PER_BLOCK = 6
MAX_BLOCKS = 4
#: every NUMBER the encoder pools hold that float64 carries exactly (the
#: scan is compared with the row store, not only with another build)
NUMBERS = sorted(
    {
        repr(v): v
        for pool in NUMBER_POOLS.values()
        for v in pool
        if v is not None and (isinstance(v, float) or abs(v) <= 2**53)
    }.values(),
    key=repr,
)


class Txns:
    def __init__(self) -> None:
        self.commits: dict = {}

    def commit_scn_of(self, xid):
        return self.commits.get(xid)


class World:
    """A table on a 'standby', its column store, and the writers."""

    def __init__(self) -> None:
        self.txns = Txns()
        self.table = Table(
            "T", SCHEMA, BlockStore(), itertools.count(700).__next__,
            rows_per_block=ROWS_PER_BLOCK,
        )
        self.segment = self.table.default_partition.segment
        self.oid = self.segment.object_id
        self.store = InMemoryColumnStore()
        im = self.store.enable(self.table)
        for expression in EXPRESSIONS:
            im.expressions.add(expression)
        self.scn = 1
        self.rows = 0  # slots handed out so far
        self.sequence = itertools.count(1)
        #: open writers: xid -> [(dba, slot)] in write order
        self.open: dict = {}
        #: snapshot of the latest (re)population
        self.snapshot = 0

    # -- time and writers ------------------------------------------------
    def tick(self) -> int:
        self.scn += 1
        return self.scn

    def writer(self, draw):
        """An open writer, or a new one (which may stay open)."""
        if self.open and draw(st.booleans()):
            return draw(st.sampled_from(sorted(self.open)))
        xid = TransactionId(1, next(self.sequence))
        self.open[xid] = []
        return xid

    @staticmethod
    def row(draw, row_id):
        return (row_id, *map(draw, World.cells(row_id)))

    @staticmethod
    def cells(row_id):
        """What each column but ``id`` may hold."""
        return (
            st.sampled_from(NUMBERS + [None]),
            st.sampled_from(NUMBERS + [None]),
            # run-shaped: neighbours mostly agree, so updates split
            # and heal long runs of one value
            st.sampled_from(["r0", "r0", "r0", "r1", None]),
            st.sampled_from(STRINGS + [f"u{row_id}", f"u{row_id}"]),
            st.sampled_from(STRINGS[:4] + [None]),
        )

    def writable(self, xid):
        """Slots whose newest version is a live row ``xid`` may lock."""
        out = []
        for block in self.segment.blocks():
            for slot in range(block.used_slots):
                current = chain_of(block, slot).current
                if current is None or current.is_delete:
                    continue
                if current.xid == xid or current.xid in self.txns.commits:
                    out.append((block.dba, slot))
        return out

    # -- the operations --------------------------------------------------
    def insert(self, draw):
        if self.rows >= ROWS_PER_BLOCK * MAX_BLOCKS:
            return
        xid = self.writer(draw)
        dba, slot = 1 + self.rows // ROWS_PER_BLOCK, self.rows % ROWS_PER_BLOCK
        self.table.apply_insert(
            self.oid, dba, slot, self.row(draw, self.rows), xid, self.tick()
        )
        self.rows += 1
        self.open[xid].append((dba, slot))

    def update(self, draw, delete=False):
        xid = self.writer(draw)
        candidates = self.writable(xid)
        if not candidates:
            return
        dba, slot = draw(st.sampled_from(candidates))
        old = self.segment._store.get(dba).current(slot)
        if delete:
            self.table.apply_delete(self.oid, dba, slot, old, xid, self.tick())
        else:
            self.table.apply_update(
                self.oid, dba, slot, self.row(draw, old[0]), (), xid,
                self.tick(),
            )
        self.open[xid].append((dba, slot))

    def update_one_column(self, draw):
        """The live shape: one committed row rewritten in one column
        (perhaps to the value it holds), committed and invalidated."""
        candidates = self.writable(None)
        if not candidates:
            return
        dba, slot = draw(st.sampled_from(candidates))
        values = list(self.segment._store.get(dba).current(slot))
        column = draw(st.integers(min_value=1, max_value=len(values) - 1))
        values[column] = draw(self.cells(values[0])[column - 1])
        xid = TransactionId(1, next(self.sequence))
        self.table.apply_update(
            self.oid, dba, slot, tuple(values), (), xid, self.tick()
        )
        self.txns.commits[xid] = self.tick()
        self.store.invalidate(self.oid, dba, (slot,), self.scn)

    def commit(self, draw):
        if not self.open:
            return
        xid = draw(st.sampled_from(sorted(self.open)))
        scn = self.tick()
        self.txns.commits[xid] = scn
        blocks: dict = {}
        for dba, slot in self.open.pop(xid):
            blocks.setdefault(dba, set()).add(slot)
        # the flush's invalidation group; sometimes at block granularity
        coarse = draw(st.integers(min_value=0, max_value=5)) == 0
        for dba, slots in blocks.items():
            self.store.invalidate(
                self.oid, dba, () if coarse else tuple(sorted(slots)), scn
            )

    def rollback(self, draw):
        if not self.open:
            return
        xid = draw(st.sampled_from(sorted(self.open)))
        for dba, slot in reversed(self.open.pop(xid)):
            self.table.apply_undo(self.oid, dba, slot, xid, self.tick())

    def over_invalidate(self, draw):
        """Invalidation is monotone: extra bits must cost nothing but a
        re-read."""
        if not self.rows:
            return
        dba = draw(st.integers(min_value=1, max_value=MAX_BLOCKS))
        slots = draw(
            st.lists(
                st.integers(min_value=0, max_value=ROWS_PER_BLOCK - 1),
                max_size=3, unique=True,
            )
        )
        self.store.invalidate(self.oid, dba, tuple(slots), self.tick())

    def step(self, draw):
        kind = draw(
            st.sampled_from(
                ["insert"] * 4 + ["update"] * 4 + ["delete", "commit",
                 "commit", "commit", "rollback", "over_invalidate"]
            )
        )
        if kind == "delete":
            self.update(draw, delete=True)
        else:
            getattr(self, kind)(draw)

    # -- (re)population, checked ------------------------------------------
    def build_args(self, dbas, snapshot):
        return (self.segment, SCHEMA, 0, list(dbas), snapshot, self.txns)

    def populate(self, draw):
        """Repopulate every unit at one snapshot -- between the last one
        and now, so the SMUs may be ahead of it -- and populate what is
        uncovered; each unit is checked before it is registered."""
        snapshot = draw(
            st.integers(
                min_value=max(self.snapshot, 1),
                max_value=self.scn,
            )
        )
        self.snapshot = snapshot
        im = self.store.segment(self.oid)
        chunks = [(smu.imcu.covered_dbas, smu) for smu in im.live_units()]
        uncovered = tuple(
            dba for dba in self.segment.dbas if dba not in im.dba_to_unit
        )
        if uncovered:
            chunks.append((uncovered, None))
        for dbas, base in chunks:
            args = self.build_args(dbas, snapshot)
            unit = IMCU.build(*args, expressions=EXPRESSIONS, base=base)
            assert_same_unit(unit, IMCU.build(*args, expressions=EXPRESSIONS))
            assert_same_unit(
                unit, naive_build(*args, expressions=EXPRESSIONS)
            )
            if base is not None:
                # ...and it did carry every row the SMU vouches for
                assert unit.rows_reused == int(base.valid_row_mask().sum())
            self.store.register_unit(unit)
        for scn in {snapshot, self.scn}:
            self.check_scan(scn)

    def check_scan(self, scn):
        expected = [v for __, v in self.table.full_scan(scn, self.txns)]
        result = ScanEngine(self.store, self.txns).scan(self.table, scn)
        assert sorted(map(repr, result.rows)) == sorted(map(repr, expected))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_generations_of_delta_builds_equal_full_builds(data):
    world = World()
    for __ in range(data.draw(st.integers(min_value=2, max_value=4))):
        for __ in range(data.draw(st.integers(min_value=0, max_value=14))):
            world.step(data.draw)
        world.populate(data.draw)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_column_updates_over_an_unchanged_row_set(data):
    """``oltap_mixed``'s shape: every rebuild keeps its row set, and each
    update rewrites one column of a full-width row."""
    n = data.draw(st.integers(min_value=1, max_value=ROWS_PER_BLOCK * 3))
    world, smu = small_world([World.row(data.draw, i) for i in range(n)])
    world.snapshot = world.scn
    for __ in range(data.draw(st.integers(min_value=1, max_value=4))):
        for __ in range(data.draw(st.integers(min_value=0, max_value=8))):
            world.update_one_column(data.draw)
        world.populate(data.draw)
    (unit,) = world.store.segment(world.oid).live_units()
    assert unit.imcu.n_rows == n and unit.imcu.rowids == smu.imcu.rowids


# -- the edges, one test each ----------------------------------------------
X = [TransactionId(1, n) for n in range(1, 9)]


def small_world(rows, commit_at=5):
    """``rows`` committed by one writer, populated at the next SCN."""
    world = World()
    for slot, values in enumerate(rows):
        world.table.apply_insert(
            world.oid, 1 + slot // ROWS_PER_BLOCK, slot % ROWS_PER_BLOCK,
            values, X[0], 2,
        )
    world.rows = len(rows)
    world.sequence = itertools.count(len(X) + 1)  # its writers are not X's
    world.txns.commits[X[0]] = commit_at
    world.scn = commit_at + 1
    unit = build(world, world.scn)
    return world, world.store.register_unit(unit)


def build(world, snapshot, base=None, dbas=None, **kwargs):
    kwargs.setdefault("expressions", EXPRESSIONS)
    dbas = world.segment.dbas if dbas is None else dbas
    return IMCU.build(*world.build_args(dbas, snapshot), base=base, **kwargs)


def both(world, snapshot, base, **kwargs):
    """The unit built over ``base``, once it equals the full build at the
    same snapshot."""
    unit = build(world, snapshot, base, **kwargs)
    assert_same_unit(unit, build(world, snapshot, **kwargs))
    return unit


def update(world, dba, slot, values, xid):
    """Committed, and invalidated as the flush would."""
    world.table.apply_update(
        world.oid, dba, slot, values, (), xid, world.tick()
    )
    world.txns.commits[xid] = world.tick()
    world.store.invalidate(world.oid, dba, (slot,), world.scn)


def insert(world, dba, slot, values, xid, commit=True):
    world.table.apply_insert(world.oid, dba, slot, values, xid, world.tick())
    if commit:
        world.txns.commits[xid] = world.tick()


def delete(world, dba, slot, xid):
    """Committed, and invalidated as the flush would."""
    old = world.segment._store.get(dba).current(slot)
    world.table.apply_delete(world.oid, dba, slot, old, xid, world.tick())
    world.txns.commits[xid] = world.tick()
    world.store.invalidate(world.oid, dba, (slot,), world.scn)


def buffers(unit):
    return {
        name: [a.tobytes() for a in cu_buffers(unit.column(name)).values()]
        for name in unit.column_names
    }


def plain_rows(n, c1="a", c2="k", c3="x"):
    return [(i, i, float(i), c1, c2, c3) for i in range(n)]


INELIGIBLE = {
    "coarse invalidation": lambda w, smu: smu.invalidate_fully(w.tick()),
    "dropped": lambda w, smu: smu.mark_dropped(),
    "DROP COLUMN": lambda w, smu: smu.invalidate_column("n1", w.tick()),
}


@pytest.mark.parametrize("why", sorted(INELIGIBLE))
def test_base_a_scan_could_not_use_falls_back(why):
    world, smu = small_world(plain_rows(8))
    INELIGIBLE[why](world, smu)
    unit = both(world, world.tick(), smu)
    assert unit.rows_reused == 0


def test_base_without_a_column_or_dictionary_to_build_falls_back():
    world, smu = small_world(plain_rows(8))
    snapshot = world.tick()
    extra = EXPRESSIONS + [Expression("twice", ("n1",), lambda a: a * 2)]
    unit = both(world, snapshot, smu, expressions=extra)
    assert unit.rows_reused == 0 and "twice" in unit.column_names


def test_snapshot_behind_the_base_or_other_blocks_fall_back():
    world, smu = small_world(plain_rows(8))
    behind = smu.imcu.snapshot_scn - 1  # a role change can rewind it
    assert build(world, behind, smu).rows_reused == 0
    for dbas in ([1], [2, 1], [1, 2, 3]):
        unit = build(world, world.scn, smu, dbas=dbas)
        assert unit.rows_reused == 0
        assert_same_unit(unit, build(world, world.scn, dbas=dbas))
    assert build(world, world.scn, smu).rows_reused == 8


def test_wiped_block_reuses_nothing_of_it():
    world, smu = small_world(plain_rows(10))
    world.segment._store.get(1).wipe_through(world.tick())  # TRUNCATE's effect
    unit = both(world, world.tick(), smu)
    assert unit.rows_reused == 4 and unit.captured_slots == {1: 0, 2: 4}
    # refilled below what the base captured: still nothing of it
    insert(world, 1, 0, plain_rows(1)[0], X[1])
    unit = both(world, world.tick(), smu)
    assert unit.rows_reused == 4 and unit.captured_slots == {1: 1, 2: 4}


def test_vanished_entry_leaves_and_new_value_enters_in_sorted_position():
    rows = [(i, 1, 1.0, v, "same", None) for i, v in enumerate("bdbf")]
    world, smu = small_world(rows)
    # the only "d" is updated away; "c" and "g" are new
    update(world, 1, 1, (1, 1, 1.0, "c", "same", None), X[1])
    insert(world, 1, 4, (4, 1, 1.0, "g", "same", None), X[2])
    unit = both(world, world.tick(), smu)
    assert unit.rows_reused == 3
    assert cu_dictionary(unit.column("c1")) == ["b", "c", "f", "g"]
    assert unit.column("c1").take(range(5)) == ["b", "c", "b", "f", "g"]
    assert cu_dictionary(unit.column("c2")) == ["same"]


def test_a_cell_rewritten_to_the_value_it_holds_carries_its_code(
    monkeypatch,
):
    """Compared with the value the base held at its own address (not a
    neighbour's: ``c2`` differs from row to row), it is never looked up."""
    rows = [(i, i, float(i), "a", f"u{i}", None) for i in range(6)]
    world, smu = small_world(rows)
    update(world, 1, 2, rows[2], X[1])  # every value as it was
    lookups = []

    def bisect_left(dictionary, value):
        lookups.append(value)
        return bisect.bisect_left(dictionary, value)

    monkeypatch.setattr(
        compression, "bisect", SimpleNamespace(bisect_left=bisect_left)
    )
    unit = both(world, world.tick(), smu)
    assert unit.rows_reused == 5 and lookups == []
    for name in ("c1", "c2", "c3", "tag"):  # nothing left, nothing entered
        assert unit.column(name)._dictionary is smu.imcu.column(name)._dictionary


def test_the_last_holder_of_an_entry_overwritten_takes_the_entry_along():
    rows = [(i, 1, 1.0, v, "k", None) for i, v in enumerate("bdbf")]
    world, smu = small_world(rows)
    update(world, 1, 3, (3, 1, 1.0, "b", "k", None), X[1])  # the only "f"
    unit = both(world, world.tick(), smu)
    assert cu_dictionary(unit.column("c1")) == ["b", "d"]
    assert cu_dictionary(unit.column("tag")) == ["b", "d"]
    assert unit.column("c1").take(range(4)) == ["b", "d", "b", "b"]


def test_a_new_value_enters_and_every_carried_code_moves_past_it():
    rows = [(i, 1, 1.0, v, "k", None) for i, v in enumerate("bdbf")]
    world, smu = small_world(rows)
    update(world, 1, 0, (0, 1, 1.0, "c", "k", None), X[1])  # "b" stays held
    unit = both(world, world.tick(), smu)
    assert unit.rows_reused == 3
    assert cu_dictionary(unit.column("c1")) == ["b", "c", "d", "f"]
    assert cu_buffers(unit.column("c1"))["codes"].tolist() == [1, 2, 0, 3]


def test_an_edge_insert_and_a_delete_in_one_rebuild():
    rows = [(i, i, float(i), v, f"u{i}", None) for i, v in enumerate("abcd")]
    world, smu = small_world(rows)
    delete(world, 1, 1, X[1])  # the only "b", and "u1"...
    insert(world, 1, 4, (4, 4, 4.0, "e", "u1", "x"), X[2])  # ...which returns
    unit = both(world, world.tick(), smu)
    assert unit.rows_reused == 3 and unit.row_slots.tolist() == [0, 2, 3, 4]
    assert cu_dictionary(unit.column("c1")) == ["a", "c", "d", "e"]
    assert cu_dictionary(unit.column("c2")) == ["u0", "u1", "u2", "u3"]
    assert cu_dictionary(unit.column("c3")) == ["x"]


def test_a_patch_built_base_patches_like_a_full_built_one():
    world, smu = small_world(plain_rows(8))
    update(world, 1, 1, (1, 5, 5.0, "z", "k", "x"), X[1])
    first = world.store.register_unit(both(world, world.tick(), smu))
    assert first.imcu.rows_reused == 7
    update(world, 1, 1, (1, 1, 1.0, "a", "k", "x"), X[2])  # "z" leaves again
    update(world, 1, 3, (3, 3, 3.0, "a", "q", "x"), X[3])
    unit = both(world, world.tick(), first)
    assert unit.rows_reused == 6
    assert cu_dictionary(unit.column("c1")) == ["a"]
    assert cu_dictionary(unit.column("c2")) == ["k", "q"]


def test_a_base_with_columns_the_build_leaves_out_carries_the_rest():
    """After DROP COLUMN the base holds a column the build no longer asks
    for: the block rows of the others are gathered, here in a new order."""
    world, smu = small_world(plain_rows(8))
    update(world, 1, 2, (2, 9, 9.0, "b", "k", "y"), X[1])
    unit = both(world, world.tick(), smu, inmemory_columns=["c3", "n2", "id"])
    assert unit.rows_reused == 7
    assert unit.column_names == ["c3", "n2", "id", "total", "tag"]


def test_signed_zero_int_float_and_nan_patch_bit_for_bit():
    """A NUMBER cell is patched, never compared: ``-0.0 == 0.0``, ``20 ==
    20.0`` and ``nan != nan`` would all mislead a carry by value."""
    rows = [(0, 0.0, 20, "a", "k", None), (1, 1.0, 1.0, "a", "k", None),
            (2, 2, 2.0, "a", "k", None)]
    world, smu = small_world(rows)
    update(world, 1, 0, (0, -0.0, 20.0, "a", "k", None), X[1])
    update(world, 1, 1, (1, math.nan, 1.0, "a", "k", None), X[2])
    unit = both(world, world.tick(), smu)  # buffers equal byte for byte
    assert repr(unit.column("n1").take([0, 1, 2])) == "[-0.0, nan, 2]"
    assert repr(unit.column("n2").take([0, 1, 2])) == "[20.0, 1.0, 2.0]"


def test_smu_ahead_of_the_snapshot_reads_the_extra_rows_at_the_snapshot():
    """The flush for the next QuerySCN has landed, publication has not."""
    world, smu = small_world(plain_rows(6))
    snapshot = world.tick()
    update(world, 1, 2, (2, -1, -1.0, "new", "k", "x"), X[1])  # beyond it
    assert smu.last_invalidation_scn > snapshot
    unit = both(world, snapshot, smu)
    assert unit.rows_reused == 5
    assert unit.column("c1").take([2]) == ["a"]  # as of the snapshot
    carried = world.store.register_unit(unit)
    assert carried.invalid_slots_by_dba() == {1: [2]}
    world.check_scan(snapshot)
    world.check_scan(world.scn)


def test_truncated_chain_still_raises_never_a_silent_tombstone():
    world, smu = small_world(plain_rows(6))
    update(world, 1, 3, (3, 0, 0.0, "late", "k", "x"), X[1])
    snapshot = world.scn - 1  # the update commits beyond it...
    world.segment._store.get(1).prune_undo(1)  # ...and the undo is gone
    with pytest.raises(SnapshotTooOldError):
        build(world, snapshot, smu)
    with pytest.raises(SnapshotTooOldError):
        build(world, snapshot)


def test_rolled_back_insert_hole_still_ends_the_settled_prefix():
    world, smu = small_world(plain_rows(3))
    insert(world, 1, 3, plain_rows(4)[3], X[1], commit=False)
    insert(world, 1, 4, plain_rows(5)[4], X[2])
    world.table.apply_undo(world.oid, 1, 3, X[1], world.tick())
    unit = both(world, world.tick(), smu)
    assert unit.captured_slots == {1: 3} and unit.rows_reused == 3


def test_prefix_slot_the_base_held_no_row_for_is_read_not_skipped(
    monkeypatch,
):
    world = World()
    for slot, values in enumerate(plain_rows(4)):
        world.table.apply_insert(world.oid, 1, slot, values, X[0], 2)
    world.table.apply_delete(world.oid, 1, 1, plain_rows(2)[1], X[0], 3)
    world.txns.commits[X[0]] = 5
    world.scn = 6
    smu = world.store.register_unit(build(world, 6))
    assert smu.imcu.n_rows == 3 and smu.imcu.captured_slots == {1: 4}
    reads = []  # (dba, slots) of every CR pass the build makes

    def spying(block, snapshot, txns, memo, slots=None):
        reads.append((block.dba, slots))
        return settled_rows(block, snapshot, txns, memo, slots)

    monkeypatch.setattr(imcu_module, "settled_rows", spying)
    unit = build(world, world.tick(), smu)
    assert reads == [(1, [1])] and unit.rows_reused == 3
    assert_same_unit(unit, build(world, world.scn))


def test_int_and_float_identity_travels_with_the_gather():
    rows = [(0, 20, 20.0, "a", "k", None), (1, 20.0, 20, "a", "k", None),
            (2, None, 2**53, "a", "k", None)]
    world, smu = small_world(rows)
    update(world, 1, 1, (1, 7, 7.0, "a", "k", None), X[1])
    unit = both(world, world.tick(), smu)
    assert unit.rows_reused == 2
    assert repr(unit.column("n1").take([0, 1, 2])) == "[20, 7, None]"
    assert repr(unit.column("n2").take([0, 1, 2])) == (
        "[20.0, 7.0, 9007199254740992]"
    )


def test_rows_reused_counts_what_the_engine_did_not_read():
    """populate n, invalidate k, insert m edge rows, repopulate."""
    n, k, m = 10, 3, 2
    world = World()
    for slot, values in enumerate(plain_rows(n)):
        world.table.apply_insert(
            world.oid, 1 + slot // ROWS_PER_BLOCK, slot % ROWS_PER_BLOCK,
            values, X[0], 2,
        )
    world.txns.commits[X[0]] = 5
    world.scn = 6
    engine = PopulationEngine(
        world.store, world.txns, snapshot_capture=lambda: world.scn,
        config=IMCSConfig(imcu_target_rows=64, repopulate_min_interval=0.0),
    )
    engine.schedule_all()
    assert engine.run_one_task() is not None
    assert (engine.rows_populated, engine.rows_reused) == (n, 0)
    for slot in range(k):
        update(world, 1, slot, (slot, -1, -1.0, "b", "k", "x"), X[1 + slot])
    for slot in range(n, n + m):
        world.table.apply_insert(
            world.oid, 2, slot % ROWS_PER_BLOCK, plain_rows(slot + 1)[slot],
            X[5], world.tick(),
        )
    world.txns.commits[X[5]] = world.tick()
    world.tick()
    assert engine.check_repopulation(now=1.0) == 1
    cost = engine.run_one_task()
    assert engine.repopulations == 1
    assert engine.rows_populated == n + (n + m)
    assert engine.rows_reused == n - k
    # the sim cost still charges every installed row
    assert cost == engine.config.populate_cost_per_row * (n + m)
    world.check_scan(world.scn)


def test_a_failed_build_hands_the_work_back_to_the_sweeps(monkeypatch):
    """``run_one_task`` pops before it builds: a build that raises must
    release the chunk and the outgoing unit, or neither is offered again."""
    world = World()
    for slot, values in enumerate(plain_rows(4)):
        world.table.apply_insert(world.oid, 1, slot, values, X[0], 2)
    world.txns.commits[X[0]] = 5
    world.scn = 6
    engine = PopulationEngine(
        world.store, world.txns, snapshot_capture=lambda: world.scn,
        config=IMCSConfig(imcu_target_rows=64, repopulate_min_interval=0.0),
    )
    real = IMCU.build.__func__
    failures = iter([SnapshotTooOldError("pruned")])

    def failing_once(cls, *args, **kwargs):
        for error in failures:
            raise error
        return real(cls, *args, **kwargs)

    # first-time population
    monkeypatch.setattr(IMCU, "build", classmethod(failing_once))
    assert engine.schedule_all() == 1
    with pytest.raises(SnapshotTooOldError):
        engine.run_one_task()
    assert engine.backlog == 0 and engine.schedule_all() == 1  # re-offered
    assert engine.run_one_task() is not None
    assert engine.populations == 1
    # repopulation
    smu = unit_covering(world.store, world.oid, 1)
    update(world, 1, 0, (0, -1, -1.0, "b", "k", "x"), X[1])
    assert engine.check_repopulation(now=1.0) == 1 and smu.repopulating
    failures = iter([SnapshotTooOldError("pruned")])
    with pytest.raises(SnapshotTooOldError):
        engine.run_one_task()
    assert not smu.repopulating
    assert engine.check_repopulation(now=2.0) == 1  # the sweep retries
    assert engine.run_one_task() is not None
    assert engine.repopulations == 1 and engine.rows_reused == 3
    world.check_scan(world.scn)


def test_a_repopulation_past_pruned_undo_releases_the_outgoing_unit():
    """A real pruned chain, not a patched build: the delta build reads the
    invalid row at a snapshot whose version is gone, ``SnapshotTooOldError``
    leaves the engine, and the outgoing SMU is no longer repopulating."""
    world = World()
    for slot, values in enumerate(plain_rows(4)):
        world.table.apply_insert(world.oid, 1, slot, values, X[0], 2)
    world.txns.commits[X[0]] = 5
    world.scn = 6
    snapshot = [world.scn]
    engine = PopulationEngine(
        world.store, world.txns, snapshot_capture=lambda: snapshot[0],
        config=IMCSConfig(imcu_target_rows=64, repopulate_min_interval=0.0),
    )
    assert engine.schedule_all() == 1
    assert engine.run_one_task() is not None
    smu = unit_covering(world.store, world.oid, 1)
    update(world, 1, 3, (3, 0, 0.0, "late", "k", "x"), X[1])
    snapshot[0] = world.scn - 1  # the update commits beyond it...
    world.segment._store.get(1).prune_undo(1)  # ...and the undo is gone
    assert engine.check_repopulation(now=1.0) == 1 and smu.repopulating
    with pytest.raises(SnapshotTooOldError):
        engine.run_one_task()
    assert not smu.repopulating
    assert engine.repopulations == 0 and engine.backlog == 0


def test_carried_buffers_are_contiguous_and_the_base_is_untouched():
    world, smu = small_world(plain_rows(9))
    before = buffers(smu.imcu)
    update(world, 1, 4, (4, None, 2.5, "b", "z", None), X[1])
    unit = both(world, world.tick(), smu)
    for name in unit.column_names:
        for array in cu_buffers(unit.column(name)).values():
            assert array.flags.c_contiguous and array.ndim == 1
    after = buffers(smu.imcu)
    assert before == after
    assert np.array_equal(unit.row_slots, np.r_[0:6, 0:3])
