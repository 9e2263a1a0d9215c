"""Property: a unit's block projection equals one ``take`` per column.

An IMCU keeps the two 2-D buffers its CUs are views of -- the NUMBER
block and the code block of its sorted-dictionary columns -- and
``IMCU.project_rows`` gathers each block once.  ``tests/naive_imcu.py::
naive_project_rows`` is the per-column projection it replaced.  Hypothesis
drives full builds over random blocks (NULL / int / float / mixed NUMBER
columns, an expression of each kind, run-shaped
strings), delta builds over several generations, a
checkpoint-restored unit and a unit assembled from the same CUs without
blocks, and projects any subset of the columns in any order at empty, one,
some or all positions.  Rows must be equal by ``repr`` (20 vs 20.0, nan,
None).

The named tests below pin the memory contract: the blocks hold what the
CUs hold, once.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imcs import IMCU
from repro.imcs.compression import (
    DictionaryCU,
    encode_rows,
    row_matrix,
)
from repro.restart.checkpoint import UnitCheckpoint

from tests.helpers import cu_dictionary, encoded_unit, merge_rows
from tests.naive_imcu import naive_build, naive_project_rows
from tests.property.test_delta_repopulation import World
from tests.property.test_population_columnar import (
    EXPRESSIONS,
    SCHEMA,
    SNAPSHOT,
    Txns,
    one_block_segment,
    segments,
    specs_of,
)


@st.composite
def projections(draw, unit: IMCU):
    """Any non-empty subset of the columns in any order, and positions:
    none, one, some (sorted, as a scan hands them over) or all."""
    names = draw(st.permutations(unit.column_names))
    names = names[: draw(st.integers(min_value=1, max_value=len(names)))]
    n = unit.n_rows
    everything = list(range(n))
    positions = draw(
        st.one_of(
            st.just([]),
            st.just(everything),
            st.lists(st.sampled_from(everything), min_size=1, max_size=1)
            if n else st.just([]),
            st.lists(st.sampled_from(everything), unique=True).map(sorted)
            if n else st.just([]),
        )
    )
    return names, np.asarray(positions, dtype=np.int64)


def without_blocks(unit: IMCU) -> IMCU:
    """The same CUs in a unit assembled from bare CUs: every column takes
    alone."""
    return IMCU(
        unit.object_id, unit.tenant, unit.snapshot_scn, unit.captured_slots,
        {name: unit.column(name) for name in unit.column_names},
        addresses=(unit.row_dbas, unit.row_slots),
    )


def assert_projects_like_takes(draw, unit: IMCU, times: int = 3):
    for __ in range(times):  # a repeat answers from the cached plan
        names, positions = draw(projections(unit))
        expected = repr(naive_project_rows(unit, positions, names))
        assert repr(unit.project_rows(positions, names)) == expected
        assert repr(unit.project_rows(positions, list(names))) == expected
        bare = without_blocks(unit)
        assert repr(bare.project_rows(positions, names)) == expected
    # ``take`` decodes through a view of the unit's table once that is
    # built, so the reference leans on the views: they must be exact
    for name in unit.column_names:
        cu = unit.column(name)
        if isinstance(cu, DictionaryCU):
            assert cu._decode.tolist() == cu._dictionary + [None]


def build(segment, dbas):
    return IMCU.build(
        segment, SCHEMA, 0, dbas, SNAPSHOT, Txns(), expressions=EXPRESSIONS,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_full_build_projects_like_per_column_takes(data):
    segment, dbas = data.draw(segments())
    assert_projects_like_takes(data.draw, build(segment, dbas))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_delta_built_and_restored_units_project_like_per_column_takes(data):
    world = World()
    for __ in range(data.draw(st.integers(min_value=2, max_value=3))):
        for __ in range(data.draw(st.integers(min_value=0, max_value=12))):
            world.step(data.draw)
        world.populate(data.draw)
        for smu in list(world.store.segment(world.oid).live_units()):
            assert_projects_like_takes(data.draw, smu.imcu, times=2)
    # an instant restart reinstalls the checkpointed unit itself
    for smu in list(world.store.segment(world.oid).live_units()):
        checkpoint = UnitCheckpoint.capture(smu)
        restored = world.store.restore_unit(
            checkpoint.imcu, checkpoint.invalid_rows,
            checkpoint.invalid_blocks, checkpoint.fully_invalid,
            checkpoint.last_invalidation_scn,
        )
        assert_projects_like_takes(data.draw, restored.imcu, times=2)


# -- the memory contract, one test each ------------------------------------
ROWS = [
    (i, float(i), [7, 7.5, None][i % 3], f"s{i % 4}", "run", None)
    for i in range(24)
]


def test_every_dictionary_cu_and_its_decode_table_are_views_of_the_block():
    unit = build(one_block_segment(ROWS), [1])
    unit.project_rows(np.arange(unit.n_rows), unit.column_names)
    numbers, codes = unit._blocks
    table = unit._code_table[0]
    names = unit.column_names
    assert [type(unit.column(names[k])) for k in codes[0]] == [
        DictionaryCU
    ] * len(codes[0])
    for j, k in enumerate(codes[0]):
        cu = unit.column(names[k])
        assert np.shares_memory(cu._codes, codes[1][j])
        assert np.shares_memory(cu._decode, table)
        assert cu._decode.tolist() == cu._dictionary + [None]
    for j, k in enumerate(numbers[0]):
        assert np.shares_memory(unit.column(names[k])._data, numbers[1][j])


def test_every_private_varchar2_column_has_a_row_in_the_block():
    """``c2`` is one value repeated: it is a DictionaryCU like every other
    VARCHAR2 column, and each of them is a row of the unit's code block --
    on the full build and on the merge path."""
    matrix = row_matrix(ROWS, SCHEMA.arity)
    specs = specs_of(SCHEMA)
    strings = [k for k, (__, is_numeric) in enumerate(specs) if not is_numeric]
    c2 = SCHEMA.column_index("c2")
    assert c2 in strings
    names = [column.name for column in SCHEMA.columns]
    cus, (__, full) = encode_rows(matrix, specs)
    keep = np.arange(len(ROWS))
    merged, (__, merge) = merge_rows(
        encoded_unit(matrix, specs, names), names, keep, matrix[:0], specs,
        keep,
    )
    for built, (coded, block, __) in ((cus, full), (merged, merge)):
        assert coded == strings
        assert block.shape == (len(strings), len(ROWS))
        for j, k in enumerate(coded):
            assert type(built[k]) is DictionaryCU
            assert np.shares_memory(built[k]._codes, block[j])
        assert cu_dictionary(built[c2]) == ["run"]


def test_memory_bytes_is_the_reference_footprint_before_and_after_a_projection():
    unit = build(one_block_segment(ROWS), [1])
    reference = naive_build(
        one_block_segment(ROWS), SCHEMA, 0, [1], SNAPSHOT, Txns(),
        expressions=EXPRESSIONS,
    )
    assert unit.memory_bytes == reference.memory_bytes
    cus = [unit.column(name) for name in unit.column_names]
    before = [cu.memory_bytes for cu in cus]
    unit.project_rows(np.arange(unit.n_rows), unit.column_names)
    assert [cu.memory_bytes for cu in cus] == before
    assert without_blocks(unit).memory_bytes == reference.memory_bytes
