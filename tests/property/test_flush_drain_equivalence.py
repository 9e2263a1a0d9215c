"""One worklink drain call flushes all its nodes at once (DESIGN.md
section 15, "Live widths"): one sort gathers every node's records, and
each touched SMU gets one mask write.  That must be unobservable.

The oracle is :mod:`tests.naive_flush` -- the paper's algorithm in plain
sets, one node, one group, one block at a time.  Hypothesis draws committed
histories (two enabled objects in two tenants and one that is not enabled,
whole-block records, rows named by several transactions, uncaptured edge
rows, units that are missing or dropped while the worklink drains and
register afterwards at a snapshot between two commitSCNs, live units
replaced afterwards at such a snapshot, coarse nodes in
between, ``GROUP_BLOCK_LIMIT`` from 1 up) and pushes them through the real
journal, commit table, flush component and store under several drain
schedules -- ``batch`` 1, 3 and everything, the coordinator alone and
interleaved with ``worker_flush``, and through the SIRA router.  Every
schedule must leave what the model leaves: SMU masks, block sets, ``last_invalidation_scn``, pending invalidations
(each with its own commitSCN), ``rows_invalidated``, ``groups_created``,
``groups_routed``, and the listener's event sequence; through the SIRA
router every schedule must put the same ``_InvalidationBatch`` contents on
the interconnect.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import TransactionId
from repro.dbim_adg import (
    DDLInformationTable,
    IMADGCommitTable,
    IMADGJournal,
    InvalidationFlushComponent,
)
from repro.dbim_adg.commit_table import CommitTableNode
from repro.dbim_adg.flush import InvalidationListener
from repro.imcs import IMCU, InMemoryColumnStore
from repro.imcs.imcu import ROW_KEY_SHIFT
from repro.rac.cluster import RemoteInvalidationRouter, _InvalidationBatch
from repro.rac.home_location import HomeLocationMap
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table

from tests.helpers import MinedRecord, add_records
from tests.naive_flush import NaiveFlush, NaiveStore, NaiveUnit

#: enabled object -> tenant; object 902 is not in-memory
TENANTS = {900: 0, 901: 1}
OBJECTS = (900, 901, 902)
UNITS_PER_OBJECT = 3
BLOCKS_PER_UNIT = 2
#: slots 0..2 of every block are captured, slot 3 is an edge row
CAPTURED_SLOTS = 3
BASE_SNAPSHOT = 50
FIRST_COMMIT_SCN = 100
MASTER, INSTANCES = 1, [1, 2, 3]


def address(key: int) -> tuple[int, int]:
    """A row key as ``(dba, slot)``."""
    return key >> ROW_KEY_SHIFT, key & ((1 << ROW_KEY_SHIFT) - 1)


def unit_dbas(object_id: int, unit: int) -> tuple[int, ...]:
    first = (object_id - 900) * 16 + unit * BLOCKS_PER_UNIT + 1
    return tuple(range(first, first + BLOCKS_PER_UNIT))


class Node(NamedTuple):
    commit_scn: int
    tenant: int
    coarse: bool
    #: (object, dba, slot (< 0 = whole block), worker, chunk)
    records: tuple


class Case(NamedTuple):
    block_limit: int
    #: (object, unit) -> "live" | "absent" | "dropped" while draining
    states: dict
    nodes: tuple
    #: (object, unit) -> snapshot a unit registers at after the drain
    late_snapshots: dict
    #: a drawn interleaving of (by_worker, batch) drain calls
    schedule: tuple


@st.composite
def cases(draw) -> Case:
    states = {
        (object_id, unit): draw(
            st.sampled_from(["live", "live", "absent", "dropped"])
        )
        for object_id in TENANTS
        for unit in range(UNITS_PER_OBJECT)
    }
    dbas = st.integers(0, UNITS_PER_OBJECT * BLOCKS_PER_UNIT - 1)
    record = st.tuples(
        st.sampled_from(OBJECTS),
        dbas,
        st.integers(-1, CAPTURED_SLOTS),
        st.integers(0, 2),
        st.integers(0, 1),
    )
    nodes, scn = [], FIRST_COMMIT_SCN
    for __ in range(draw(st.integers(1, 9))):
        scn += draw(st.integers(1, 3))
        tenant = draw(st.integers(0, 1))
        if draw(st.integers(0, 6)) == 0:
            nodes.append(Node(scn, tenant, True, ()))
            continue
        records = draw(st.lists(record, max_size=10))
        nodes.append(
            Node(
                scn,
                tenant,
                False,
                tuple(
                    (o, unit_dbas(o, 0)[0] + d, s, w, c)
                    for o, d, s, w, c in records
                ),
            )
        )
    # every missing unit registers afterwards, and some live ones are
    # replaced (a repopulation swap carries the outgoing unit's mask)
    late = {
        key: draw(st.integers(FIRST_COMMIT_SCN - 1, scn + 1))
        for key, state in states.items()
        if state != "live" or draw(st.booleans())
    }
    schedule = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 4)), min_size=1, max_size=6
        )
    )
    return Case(
        draw(st.sampled_from([1, 2, 3, 64])),
        states,
        tuple(nodes),
        late,
        tuple(schedule),
    )


def schedules(case: Case) -> dict[str, tuple]:
    return {
        "one": ((False, 1),),
        "three": ((False, 3),),
        "all": ((False, 10**6),),
        "workers": ((True, 2),),
        "interleaved": case.schedule,
    }


# ----------------------------------------------------------------------
# the real side
# ----------------------------------------------------------------------
class Recorder(InvalidationListener):
    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_group_flushed(self, group) -> None:
        assert group.keys == sorted(set(group.keys))  # sorted, distinct
        self.events.append(
            ("group", group.object_id, group.commit_scn, group.blocks)
        )

    def on_coarse_invalidation(self, tenant, scn) -> None:
        self.events.append(("coarse", tenant, scn))


class FakeInterconnect:
    def __init__(self) -> None:
        self.sent: list[tuple] = []

    def send(self, from_instance, to_instance, payload, size_hint=1) -> None:
        assert isinstance(payload, _InvalidationBatch)
        self.sent.append(
            (
                to_instance,
                payload.sequence,
                [
                    (g.object_id, g.tenant, g.commit_scn, g.blocks)
                    for g in payload.groups
                ],
                list(payload.coarse_tenants),
            )
        )


def synthetic_imcu(object_id: int, unit: int, snapshot: int) -> IMCU:
    covered = unit_dbas(object_id, unit)
    return IMCU(
        object_id,
        TENANTS[object_id],
        snapshot,
        {dba: CAPTURED_SLOTS for dba in covered},
        {},
        addresses=(
            np.repeat(np.array(covered, dtype=np.int64), CAPTURED_SLOTS),
            np.tile(np.arange(CAPTURED_SLOTS, dtype=np.int64), len(covered)),
        ),
    )


class World:
    """The real journal / commit table / flush / store, loaded with one
    case and chopped into a worklink."""

    def __init__(self, case: Case, sira: bool = False) -> None:
        self.case = case
        self.journal = IMADGJournal()
        self.commit_table = IMADGCommitTable(2)
        self.store = InMemoryColumnStore()
        schema = Schema([Column("id", ColumnType.NUMBER, nullable=False)])
        for object_id, tenant in TENANTS.items():
            self.store.enable(
                Table(
                    f"T{object_id}", schema, BlockStore(),
                    object_id_allocator=lambda oid=object_id: oid,
                    tenant=tenant,
                )
            )
        self.units = {}
        for (object_id, unit), state in case.states.items():
            if state == "absent":
                continue
            smu = self.store.register_unit(
                synthetic_imcu(object_id, unit, BASE_SNAPSHOT)
            )
            self.units[(object_id, unit)] = smu
            if state == "dropped":
                smu.mark_dropped()
        self.interconnect = FakeInterconnect()
        self.home_map = HomeLocationMap(INSTANCES, range_blocks=2)
        self.flush = InvalidationFlushComponent(
            self.journal, self.commit_table, DDLInformationTable(),
            self.store,
        )
        self.flush.GROUP_BLOCK_LIMIT = case.block_limit
        if sira:
            self.flush.router = RemoteInvalidationRouter(
                self.store, MASTER, self.home_map, self.interconnect,
                batch_size=3,
            )
        self.recorder = Recorder()
        self.flush.add_invalidation_listener(self.recorder)
        nodes = []
        for i, node in enumerate(case.nodes):
            xid = TransactionId(1, i + 1)
            if node.coarse:
                nodes.append(
                    CommitTableNode(
                        xid, node.commit_scn, None, node.tenant, coarse=True
                    )
                )
                continue
            anchor = self.journal.get_or_create(xid, node.tenant)
            anchor.has_begin = True
            by_chunk: dict = {}
            for object_id, dba, slot, worker, chunk in node.records:
                by_chunk.setdefault((worker, chunk), []).append(
                    MinedRecord(
                        object_id, dba, (slot,) if slot >= 0 else (),
                        node.tenant,
                    )
                )
            for (worker, __), records in sorted(by_chunk.items()):
                add_records(anchor, worker, records, node.commit_scn - 1)
            nodes.append(
                CommitTableNode(xid, node.commit_scn, anchor, node.tenant)
            )
        self.commit_table.insert_batch(nodes)
        self.flush.begin_advance(10**9)
        assert self.flush.worklink.created == len(case.nodes)

    def drain(self, schedule) -> None:
        flush = self.flush
        for by_worker, batch in itertools.cycle(schedule):
            if not flush.worklink.remaining:
                break
            if by_worker:
                assert flush.worker_flush(0, batch) > 0
            else:
                assert flush.coordinator_flush(batch) > 0
        assert self.journal.anchor_count == 0

    def register_late_units(self) -> None:
        for (object_id, unit), snapshot in self.case.late_snapshots.items():
            self.store.register_unit(synthetic_imcu(object_id, unit, snapshot))

    def state(self) -> dict:
        units, pending_rows, pending_whole = [], {}, []
        for object_id in TENANTS:
            segment = self.store.segment(object_id)
            for smu in segment.units:
                units.append(
                    (
                        object_id,
                        smu.imcu.covered_dbas,
                        smu.imcu.snapshot_scn,
                        sorted(map(address, smu.invalid_row_keys().tolist())),
                        sorted(smu.invalid_blocks),
                        sorted(
                            (address(key), scn)
                            for key, scn in smu.uncaptured.items()
                        ),
                        smu.last_invalidation_scn,
                        smu.fully_invalid,
                        smu.dropped,
                    )
                )
            for record in segment.pending:
                if record.keys is None:
                    (scn,) = record.scns
                    pending_whole.append((object_id, record.dba, scn))
                    continue
                for key, scn in zip(record.keys, record.scns):
                    row = (object_id, *address(key))
                    assert row[1] == record.dba
                    pending_rows[row] = max(pending_rows.get(row, 0), scn)
        return {
            "units": sorted(units),
            "pending_rows": pending_rows,
            "pending_whole": sorted(pending_whole),
            "rows_invalidated": self.store.rows_invalidated,
        }

    def counters(self) -> dict:
        return {
            "groups_created": self.flush.groups_created,
            "coarse_flushes": self.flush.coarse_flushes,
            "nodes_flushed": self.flush.nodes_flushed,
        }


# ----------------------------------------------------------------------
# the model side
# ----------------------------------------------------------------------
def naive_unit(object_id: int, unit: int, snapshot: int) -> NaiveUnit:
    covered = unit_dbas(object_id, unit)
    return NaiveUnit(
        object_id,
        TENANTS[object_id],
        covered,
        frozenset(
            (dba, slot) for dba in covered for slot in range(CAPTURED_SLOTS)
        ),
        snapshot,
    )


class MasterOnly(NaiveStore):
    """The master's store behind the SIRA router: it only hears of the
    blocks homed on the master."""

    def __init__(self, home_map: HomeLocationMap) -> None:
        super().__init__(TENANTS)
        self.home_map = home_map

    def invalidate(self, object_id, dba, slots, scn) -> None:
        if self.home_map.is_home(MASTER, object_id, dba):
            super().invalidate(object_id, dba, slots, scn)


class Model:
    def __init__(self, case: Case, store: Optional[NaiveStore] = None) -> None:
        self.case = case
        self.store = store or NaiveStore(TENANTS)
        for (object_id, unit), state in case.states.items():
            if state == "absent":
                continue
            naive = naive_unit(object_id, unit, BASE_SNAPSHOT)
            self.store.register(naive)
            naive.dropped = state == "dropped"
        self.flush = NaiveFlush(self.store, case.block_limit)

    def drain(self) -> None:
        for node in self.case.nodes:
            self.flush.flush_node(
                node.commit_scn,
                [record[:3] for record in node.records],
                node.tenant if node.coarse else None,
            )

    def register_late_units(self) -> None:
        for (object_id, unit), snapshot in self.case.late_snapshots.items():
            self.store.register(naive_unit(object_id, unit, snapshot))

    def state(self) -> dict:
        pending_rows, pending_whole = {}, []
        for object_id, dba, slots, scn in self.store.pending:
            if not slots:
                pending_whole.append((object_id, dba, scn))
            for slot in slots:
                row = (object_id, dba, slot)
                pending_rows[row] = max(pending_rows.get(row, 0), scn)
        return {
            "units": sorted(
                (
                    unit.object_id,
                    unit.covered,
                    unit.snapshot,
                    sorted(unit.rows),
                    sorted(unit.blocks),
                    sorted(unit.parked.items()),
                    unit.last_scn,
                    unit.fully,
                    unit.dropped,
                )
                for unit in self.store.units
            ),
            "pending_rows": pending_rows,
            "pending_whole": sorted(pending_whole),
            "rows_invalidated": self.store.rows_invalidated,
        }

    def counters(self) -> dict:
        return {
            "groups_created": self.flush.groups_created,
            "coarse_flushes": self.flush.coarse_flushes,
            "nodes_flushed": len(self.case.nodes),
        }


def expected_of(case: Case, store: Optional[NaiveStore] = None):
    model = Model(case, store)
    model.drain()
    drained = model.state()
    model.register_late_units()
    return model, drained, model.state()


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------
#: drawing a case is a few hundred draws; a loaded CI box must not fail it
SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=150, **SETTINGS)
@given(case=cases())
def test_every_drain_schedule_flushes_like_the_naive_model(case):
    model, drained, registered = expected_of(case)
    for name, schedule in schedules(case).items():
        world = World(case)
        world.drain(schedule)
        assert world.state() == drained, name
        assert world.counters() == model.counters(), name
        assert world.recorder.events == model.flush.events, name
        assert world.flush.router.groups_routed == model.flush.groups_created
        # units registering afterwards filter what parked by its own SCN
        world.register_late_units()
        assert world.state() == registered, name


@settings(max_examples=100, **SETTINGS)
@given(case=cases())
def test_sira_router_ships_the_same_batches_under_every_schedule(case):
    """Through the SIRA router a group is split by home instance: the
    master's share lands in its store (all of a drain call's shares in
    one store call), the others ride ``_InvalidationBatch`` messages whose
    contents and cut points must not depend on the drain schedule."""
    home_map = HomeLocationMap(INSTANCES, range_blocks=2)
    model, drained, __ = expected_of(case, MasterOnly(home_map))
    # what the peers are owed: every group's remote blocks, in order
    owed: dict[int, list] = {i: [] for i in INSTANCES if i != MASTER}
    coarse = []
    for event in model.flush.events:
        if event[0] == "coarse":
            coarse.append(event[1:])
            continue
        __, object_id, scn, blocks = event
        for instance, dbas in home_map.split_by_home(
            object_id, list(blocks)
        ).items():
            if instance != MASTER:
                owed[instance].append(
                    (object_id, scn, {dba: blocks[dba] for dba in dbas})
                )
    sent = {}
    for name, schedule in schedules(case).items():
        world = World(case, sira=True)
        world.drain(schedule)
        world.flush.router.flush_buffers()
        assert world.state() == drained, name
        assert world.recorder.events == model.flush.events, name
        sent[name] = world.interconnect.sent
        for instance, groups in owed.items():
            shipped = [
                (object_id, scn, blocks)
                for to, __, batch, __ in sent[name]
                if to == instance
                for object_id, __, scn, blocks in batch
            ]
            assert shipped == groups, (name, instance)
            assert [
                c
                for to, __, __, tenants in sent[name]
                if to == instance
                for c in tenants
            ] == coarse
    assert all(batches == sent["one"] for batches in sent.values())


# ----------------------------------------------------------------------
# one named test per edge
# ----------------------------------------------------------------------
def txn(scn, *records, tenant=0):
    """A node whose records are (object, dba, slot) on worker 0."""
    return Node(scn, tenant, False, tuple((*r, 0, 0) for r in records))


def case_of(*nodes, states=None, late=None, block_limit=64) -> Case:
    all_live = {
        (o, u): "live" for o in TENANTS for u in range(UNITS_PER_OBJECT)
    }
    return Case(
        block_limit, {**all_live, **(states or {})}, nodes, late or {}, ()
    )


A1, A2 = unit_dbas(900, 0)
A3 = unit_dbas(900, 1)[0]


def unit_over(world: World, dba: int):
    (smu,) = [
        smu
        for smu in world.store.segment(900).units
        if dba in smu.imcu.covered_dbas
    ]
    return smu


def drained_all_at_once(case: Case) -> World:
    world = World(case)
    world.drain(((False, 10**6),))
    return world


def test_pending_rows_keep_their_own_commit_scn():
    """The trap: two transactions of one drain call invalidate rows of a
    block that has no unit yet.  The unit then registers at a snapshot
    *between* their commitSCNs: the first row is already in its data, the
    second is not -- parking both at the drain's highest commitSCN would
    invalidate both, at its lowest would lose the second."""
    case = case_of(
        txn(110, (900, A1, 0)),
        txn(120, (900, A1, 1)),
        states={(900, 0): "absent"},
        late={(900, 0): 115},
    )
    world = drained_all_at_once(case)
    assert world.state()["pending_rows"] == {
        (900, A1, 0): 110,
        (900, A1, 1): 120,
    }
    world.register_late_units()
    smu = unit_over(world, A1)
    assert smu.invalid_row_keys().tolist() == [(A1 << ROW_KEY_SHIFT) + 1]
    assert smu.last_invalidation_scn == 120
    assert world.store.rows_invalidated == 1


def test_a_row_parked_twice_keeps_its_highest_commit_scn():
    case = case_of(
        txn(110, (900, A1, 2)),
        txn(120, (900, A1, 2)),
        states={(900, 0): "dropped"},
        late={(900, 0): 115},
    )
    world = drained_all_at_once(case)
    assert world.state()["pending_rows"] == {(900, A1, 2): 120}
    world.register_late_units()
    assert world.state() == expected_of(case)[2]
    assert world.store.rows_invalidated == 1


def test_a_swap_after_the_drain_carries_its_rows_onto_the_replacement():
    """A repopulation built at a snapshot below the drain's commitSCNs
    replaces the unit: the rows of *every* covered block ride along."""
    case = case_of(
        txn(110, (900, A1, 0), (900, A2, 1)),
        txn(120, (900, A2, 2), (900, A3, 0)),
        late={(900, 0): 105},
    )
    world = drained_all_at_once(case)
    world.register_late_units()
    smu = unit_over(world, A1)
    assert smu.imcu.snapshot_scn == 105
    assert smu.invalid_row_keys().tolist() == [
        (A1 << ROW_KEY_SHIFT) + 0,
        (A2 << ROW_KEY_SHIFT) + 1,
        (A2 << ROW_KEY_SHIFT) + 2,
    ]
    assert smu.last_invalidation_scn == 120
    assert world.state() == expected_of(case)[2]


def test_last_invalidation_scn_is_the_highest_commit_scn_per_unit():
    """One mask write per unit carries the highest commitSCN *of that
    unit's rows*, not of the drain."""
    case = case_of(
        txn(110, (900, A1, 0)), txn(120, (900, A3, 0)), txn(130, (901, 17, 0))
    )
    world = drained_all_at_once(case)
    by_cover = {
        (o, smu.imcu.covered_dbas): smu.last_invalidation_scn
        for o in TENANTS
        for smu in world.store.segment(o).units
    }
    assert by_cover[(900, unit_dbas(900, 0))] == 110
    assert by_cover[(900, unit_dbas(900, 1))] == 120
    assert by_cover[(901, unit_dbas(901, 0))] == 130
    assert by_cover[(900, unit_dbas(900, 2))] == 0


def test_rows_named_by_several_transactions_count_once():
    case = case_of(
        txn(110, (900, A1, 0), (900, A1, 1)),
        txn(120, (900, A1, 1), (900, A1, 3)),  # slot 3: an uncaptured edge
        txn(130, (900, A1, 0)),
    )
    world = drained_all_at_once(case)
    assert world.store.rows_invalidated == 2
    assert world.flush.groups_created == 3
    assert world.state() == expected_of(case)[1]


def test_whole_block_wins_over_slots_and_counts_once_per_group():
    case = case_of(
        txn(110, (900, A1, 1), (900, A1, -1), (900, A2, 2)),
        txn(120, (900, A1, -1)),
    )
    world = drained_all_at_once(case)
    first, second = world.recorder.events
    assert first == ("group", 900, 110, {A1: (), A2: (2,)})
    assert second == ("group", 900, 120, {A1: ()})
    smu = unit_over(world, A1)
    assert smu.invalid_blocks == frozenset({A1})
    assert smu.invalid_row_keys().tolist() == [(A2 << ROW_KEY_SHIFT) + 2]
    # one row + the block once per group naming it, as node-by-node
    assert world.store.rows_invalidated == 3


@pytest.mark.parametrize(
    "limit, sizes", [(1, [1, 1, 1]), (2, [2, 1]), (3, [3])]
)
def test_group_block_limit_splits_where_node_by_node_did(limit, sizes):
    """Per transaction *and object*: the limit never merges two objects'
    blocks or two transactions' into one group."""
    records = [(900, A1, 0), (900, A2, 0), (900, A3, 0)]
    case = case_of(
        txn(110, *records, (901, 17, 0)), txn(120, *records),
        block_limit=limit,
    )
    world = drained_all_at_once(case)
    groups = [(e[1], e[2], len(e[3])) for e in world.recorder.events]
    assert groups == (
        [(900, 110, n) for n in sizes]
        + [(901, 110, 1)]
        + [(900, 120, n) for n in sizes]
    )
    assert world.recorder.events == expected_of(case)[0].flush.events


def test_coarse_node_keeps_its_place_in_the_listener_order():
    case = case_of(
        txn(110, (900, A1, 0)),
        Node(120, 0, True, ()),
        txn(130, (900, A1, 1), (901, 17, 0), tenant=1),
    )
    world = drained_all_at_once(case)
    assert [e[:3] for e in world.recorder.events] == [
        ("group", 900, 110),
        ("coarse", 0, 120),
        ("group", 900, 130),
        ("group", 901, 130),
    ]
    # ...while its SMU effect commutes with the row invalidations
    assert world.state() == expected_of(case)[1]
    tenant0 = world.store.segment(900).units
    assert all(smu.fully_invalid for smu in tenant0)
    assert not any(s.fully_invalid for s in world.store.segment(901).units)


def test_a_raising_listener_leaves_no_less_flushed_than_node_by_node():
    """Listeners hear of a node after the drain call's invalidations are
    in the SMUs: when one raises, the nodes before it are off the worklink
    and out of the journal, the rest stay queued -- and flushing them again
    changes nothing but the counters."""
    case = case_of(
        txn(110, (900, A1, 0)), txn(120, (900, A1, 1)), txn(130, (900, A2, 0))
    )
    world = World(case)

    class Boom(InvalidationListener):
        def on_group_flushed(self, group) -> None:
            if group.commit_scn == 120:
                raise RuntimeError("listener failed")

    boom = Boom()
    world.flush.add_invalidation_listener(boom)
    with pytest.raises(RuntimeError):
        world.flush.coordinator_flush(10)
    # node 1 done; node 2 popped (as it was when flushed one at a time)
    # but its anchor not retired; node 3 untouched on the worklink
    assert world.flush.worklink.remaining == 1
    assert world.journal.anchor_count == 2
    # ...and the SMUs hold at least nodes 1 and 2
    assert {(A1, 0), (A1, 1)} <= set(
        map(address, unit_over(world, A1).invalid_row_keys().tolist())
    )
    world.flush.invalidation_listeners.remove(boom)
    assert world.flush.coordinator_flush(10) == 1
    full = world.state()
    assert full["units"] == expected_of(case)[1]["units"]
    assert full["rows_invalidated"] == 3
