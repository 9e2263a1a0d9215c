"""Property: a delta-built unit projects like a unit built without a base.

A unit merged from its outgoing unit (``IMCU.build(base=smu)``) starts with
that unit's projection state where it still holds: the decode table when
the merge changed no dictionary and kept the code rows in order, the
projection plans when the columns, the NUMBER block's columns and each
NUMBER column's facts (any NULL, any int, all int) are the same.
Hypothesis drives generations of delta builds, each after one change --
a NULL, an int or a float entering a NUMBER column, a new or an existing
VARCHAR2 value, a row deleted, a column left out of the build -- and each
generation, having inherited whatever it inherited, must project every
name list exactly like the full build at the same snapshot: all columns,
a subset, and a reordered subset with a duplicate.

The named tests below pin what is inherited, how often the state is
derived along a chain, and that the outgoing unit's caches are its own.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import TransactionId
from repro.imcs import IMCU
from repro.imcs import imcu as imcu_module

from tests.property.test_delta_repopulation import (
    build,
    delete,
    plain_rows,
    small_world,
    update,
)

#: rows (id, n1 int, n2 float, c1, c2, c3): every NUMBER column starts
#: int-only or float-only, so its plan row sits in a block
ROWS = 10


def name_lists(columns: list[str]) -> list[tuple]:
    """All columns, a subset, and a reordered subset with a duplicate."""
    return [
        tuple(columns),
        tuple(columns[1::2]),
        (columns[-1], columns[0], columns[-1], *columns[2:4]),
    ]


def assert_projects_like_a_full_build(unit: IMCU, full: IMCU, lists) -> None:
    everything = np.arange(unit.n_rows)
    for names in lists:
        names = [name for name in names if name in unit.column_name_set]
        for positions in (everything, everything[::3], everything[-1:]):
            expected = repr(full.project_rows(positions, names))
            assert repr(unit.project_rows(positions, names)) == expected


def writer(world) -> TransactionId:
    """A writer no earlier change used: each commits once."""
    return TransactionId(1, next(world.sequence))


def changed(world, draw, generation: int) -> None:
    """One committed change to a live row (or none), invalidated as the
    flush would."""
    live = [
        (block.dba, slot)
        for block in world.segment.blocks()
        for slot in range(block.used_slots)
        if block.current(slot) is not None
    ]
    if not live:
        return
    dba, slot = draw(st.sampled_from(live))
    values = list(world.segment._store.get(dba).current(slot))
    xid = writer(world)
    kind = draw(st.sampled_from([
        "null n1", "null n2", "float n1", "int n2", "int n1", "float n2",
        "new c1", "held c1", "delete", "nothing",
    ]))
    if kind == "delete":
        delete(world, dba, slot, xid)
        return
    if kind == "nothing":
        return
    what, column = kind.split()
    values[("id", "n1", "n2", "c1").index(column)] = {
        "null": None,
        "float": 0.5 + generation,
        "int": 7 + generation,
        "new": f"new{generation}",
        "held": "a",
    }[what]
    update(world, dba, slot, tuple(values), xid)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_generations_of_delta_builds_project_like_full_builds(data):
    world, smu = small_world(plain_rows(ROWS))
    columns = ["id", "n1", "n2", "c1", "c2", "c3"]
    lists = name_lists(smu.imcu.column_names)
    # the first base derives its plans and its table, as a scan would
    assert_projects_like_a_full_build(smu.imcu, smu.imcu, lists)
    for generation in range(data.draw(st.integers(1, 5))):
        changed(world, data.draw, generation)
        if data.draw(st.integers(0, 4)) == 0 and len(columns) > 3:
            columns.remove(data.draw(st.sampled_from(columns[1:])))
        snapshot = world.tick()
        unit = build(world, snapshot, smu, inmemory_columns=list(columns))
        full = build(world, snapshot, inmemory_columns=list(columns))
        assert_projects_like_a_full_build(unit, full, lists)
        smu = world.store.register_unit(unit)


# -- what is inherited, one test each ---------------------------------------
def chain(world, smu, step, generations, lists):
    """``generations`` delta builds, each after ``step(world, i)``, each
    projecting ``lists`` before the next is built; the units."""
    units = [smu.imcu]
    for names in lists:
        smu.imcu.project_rows(np.arange(smu.imcu.n_rows), list(names))
    for i in range(generations):
        step(world, i)
        unit = build(world, world.tick(), smu)
        assert unit.rows_reused > 0
        for names in lists:
            unit.project_rows(np.arange(unit.n_rows), list(names))
        smu = world.store.register_unit(unit)
        units.append(unit)
    return units


def test_a_chain_that_changes_no_dictionary_derives_its_state_once(
    monkeypatch,
):
    tables, plans = [], []
    derive_table = imcu_module._decode_table
    derive_plan = IMCU._projection

    def counted_table(dictionaries):
        tables.append(len(dictionaries))
        return derive_table(dictionaries)

    def counted_plan(unit, names):
        if names not in unit._projections:
            plans.append(names)
        return derive_plan(unit, names)

    monkeypatch.setattr(imcu_module, "_decode_table", counted_table)
    monkeypatch.setattr(IMCU, "_projection", counted_plan)
    world, smu = small_world(plain_rows(ROWS))
    lists = name_lists(smu.imcu.column_names)

    def numbers_only(world, i):  # int stays int, float stays float
        values = (i, 100 + i, 0.5 + i, "a", "k", "x")
        update(world, 1 + i // 6, i % 6, values, writer(world))

    units = chain(world, smu, numbers_only, 10, lists)
    assert len(tables) == 1
    assert sorted(plans) == sorted(lists)
    for unit in units[1:]:
        assert unit._code_table is units[0]._code_table


def test_a_changed_dictionary_moves_only_the_table_a_new_null_only_the_plans():
    world, smu = small_world(plain_rows(ROWS))
    lists = name_lists(smu.imcu.column_names)

    def new_value(world, i):
        update(world, 1, 0, (0, 0, 0.0, f"z{i}", "k", "x"), writer(world))

    base, unit = chain(world, smu, new_value, 1, lists)
    assert unit._code_table is not base._code_table
    assert unit._projections.keys() == base._projections.keys()

    def null_n1(world, i):
        update(world, 1, 1, (1, None, 1.0, "a", "k", "x"), writer(world))

    smu = world.store.segment(world.oid).live_units()[0]
    base, unit = chain(world, smu, null_n1, 1, lists)
    assert unit._code_table is base._code_table
    assert unit._layout() != base._layout()
    assert all(
        unit._projections[names] is not base._projections[names]
        for names in lists
    )


def test_the_outgoing_units_caches_stay_its_own():
    """Old units stay live for checkpoints and earlier morsels: a plan the
    new unit derives, and the table it builds, never reach the base."""
    world, smu = small_world(plain_rows(ROWS))
    base = smu.imcu
    lists = name_lists(base.column_names)
    base.project_rows(np.arange(ROWS), list(lists[0]))
    plans = list(base._projections.items())
    table = base._code_table
    update(world, 1, 2, (2, 9, 9.5, "a", "k", "x"), writer(world))
    unit = build(world, world.tick(), smu)
    assert unit._projections is not base._projections
    assert list(unit._projections.items()) == plans  # the same plans
    for names in lists[1:]:
        unit.project_rows(np.arange(unit.n_rows), list(names))
    assert list(base._projections.items()) == plans
    assert base._code_table is table
