"""Property: columnar population equals the cell-at-a-time reference.

``IMCU.build`` makes one CR pass per block, lays the captured tuples into
one row matrix and encodes it block-wise; ``tests/naive_imcu.py`` is the
scalar build it replaced.  Hypothesis drives random blocks -- NULLs, NaN,
mixed int/float columns, ints above 2**53, tombstones, an uncommitted or
later-committed tail (edge rows), empty chains (apply gaps), missing
blocks, all-NULL columns, zero-row units, strings with trailing NUL /
empty / non-BMP characters, long runs of one value and expression
columns -- and requires identical
units: row addresses, captured slots, CU class, encoded buffers byte for
byte, dictionaries, storage index, pool footprint and decoded values.

The named tests below are the hazards of vectorising this layer (DESIGN,
"Columnar population"); each fails on the obvious numpy rewrite.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import RowId, SnapshotTooOldError, TransactionId
from repro.imcs import IMCU, SMU
from repro.imcs import compression
from repro.imcs.compression import DictionaryCU, encode_rows, row_matrix
from repro.imcs.expressions import Expression
from repro.imcs.imcu import row_keys
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Segment

from tests.helpers import (
    cu_buffers,
    cu_dictionary,
    encode_column,
    row_position,
)
from tests.naive_imcu import naive_build, naive_encode_column
from tests.naive_versions import chain_of

SNAPSHOT = 12
#: writer -> commitSCN: two visible at the snapshot, one committed beyond
#: it, one never committed
WRITERS = {
    TransactionId(1, 1): 5,
    TransactionId(1, 2): 10,
    TransactionId(2, 1): 20,
    TransactionId(2, 2): None,
}
VISIBLE = [x for x, scn in WRITERS.items() if scn is not None and scn <= SNAPSHOT]
HIDDEN = [x for x in WRITERS if x not in VISIBLE]


class Txns:
    def commit_scn_of(self, xid):
        return WRITERS.get(xid)


SCHEMA = Schema(
    [
        Column("id", ColumnType.NUMBER, nullable=False),
        Column("n1", ColumnType.NUMBER),
        Column("n2", ColumnType.NUMBER),
        Column("c1", ColumnType.VARCHAR2),
        Column("c2", ColumnType.VARCHAR2),
        Column("c3", ColumnType.VARCHAR2),
    ]
)
EXPRESSIONS = [
    Expression(
        "total", ("n1", "n2"),
        lambda a, b: None if a is None or b is None else a + b,
    ),
    Expression(
        "tag", ("c1",), lambda c: None if c is None else c[:1],
        is_numeric=False,
    ),
]

# -- cell strategies ----------------------------------------------------
#: a NUMBER column's population, by type set: the encoder's fast paths key
#: on it, so every set (with and without NULLs) must be drawn
NUMBER_POOLS = {
    "int": [0, 1, -7, 2**53 + 1, 2**60, -(2**62)],
    "float": [0.0, -0.0, 1.5, 20.0, 1e300, math.inf, math.nan],
    "mixed": [20, 20.0, 0, 0.0, 3, 2.5, 2**53 + 1, math.nan],
    "null": [None],
}
STRINGS = ["", "a", "a\x00", "a\x00\x00", "ab", "b", "é", "\U0001f600", "z" * 9]


@st.composite
def number_columns(draw, n):
    pool = list(NUMBER_POOLS[draw(st.sampled_from(sorted(NUMBER_POOLS)))])
    if draw(st.booleans()):
        pool.append(None)
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def string_columns(draw, n):
    """Run-shaped over a small alphabet: runs of one value up to 8 long."""
    alphabet = draw(
        st.lists(st.sampled_from(STRINGS + [None]), min_size=1, max_size=5)
    )
    longest = draw(st.integers(min_value=1, max_value=8))
    out: list = []
    while len(out) < n:
        out += [draw(st.sampled_from(alphabet))] * draw(
            st.integers(min_value=1, max_value=longest)
        )
    return out[:n]


@st.composite
def row_lists(draw, max_rows=40):
    n = draw(st.integers(min_value=0, max_value=max_rows))
    columns = [list(range(n))]
    columns += [draw(number_columns(n)) for __ in range(2)]
    columns += [draw(string_columns(n)) for __ in range(3)]
    return list(zip(*columns))


# -- block strategies ---------------------------------------------------
#: what a slot's chain looks like at the snapshot
SLOT_KINDS = (
    "row", "row", "row", "updated", "dirty_on_top", "tombstone",
    "uncommitted", "later", "gap",
)


def write_slot(block, slot, kind, rows, draw):
    """Lay one slot's chain out; returns True when the slot is settled."""
    visible = draw(st.sampled_from(VISIBLE))
    hidden = draw(st.sampled_from(HIDDEN))
    if kind == "gap":  # applied out of order: the chain exists, empty
        block.apply_at_slot(slot + 1, next(rows), visible, 1)
        block.undo_write(slot + 1, visible)
        return False
    if kind in ("uncommitted", "later"):
        block.apply_at_slot(slot, next(rows), hidden, 3)
        return False
    block.apply_at_slot(slot, next(rows), visible, 1)
    if kind == "updated":
        block.apply_at_slot(slot, next(rows), visible, 2)
    elif kind == "dirty_on_top":
        block.apply_at_slot(slot, next(rows), hidden, 3)
    elif kind == "tombstone":
        block.apply_at_slot(slot, None, visible, 2)
    return True


@st.composite
def segments(draw):
    """A segment of up to four 6-slot blocks plus one DBA that was never
    materialised; returns ``(segment, dbas)``."""
    rows = iter(draw(row_lists(max_rows=60)) * 3 + [(0, 1, 2.0, "x", None, "y")] * 200)
    store = BlockStore()
    segment = Segment(700, store, rows_per_block=6)
    dbas = []
    for dba in range(1, draw(st.integers(min_value=0, max_value=4)) + 1):
        dbas.append(dba)
        if draw(st.integers(min_value=0, max_value=7)) == 0:
            continue  # missing block
        block = segment.ensure_block(dba)
        kinds = draw(st.lists(st.sampled_from(SLOT_KINDS), max_size=5))
        for slot, kind in enumerate(kinds):
            write_slot(block, slot, kind, rows, draw)
    return segment, dbas


# -- comparison ---------------------------------------------------------
def assert_same_cu(actual, expected):
    assert type(actual) is type(expected)
    assert actual.n_rows == expected.n_rows
    assert cu_dictionary(actual) == cu_dictionary(expected)
    arrays, ref_arrays = cu_buffers(actual), cu_buffers(expected)
    assert arrays.keys() == ref_arrays.keys()
    for name, array in arrays.items():
        assert array.flags.c_contiguous, name
        assert array.dtype == ref_arrays[name].dtype, name
        assert array.tobytes() == ref_arrays[name].tobytes(), name
    assert repr(actual.min_value) == repr(expected.min_value)
    assert repr(actual.max_value) == repr(expected.max_value)
    assert actual.memory_bytes == expected.memory_bytes
    everything = np.arange(actual.n_rows)
    # repr, not ==: 20 vs 20.0 and nan vs nan must both be told apart
    assert repr(actual.take(everything)) == repr(expected.take(everything))


def assert_same_unit(actual: IMCU, expected: IMCU):
    assert actual.row_dbas.dtype == actual.row_slots.dtype == np.int64
    assert actual.row_dbas.tolist() == expected.row_dbas.tolist()
    assert actual.row_slots.tolist() == expected.row_slots.tolist()
    assert actual.rowids == expected.rowids
    assert actual.captured_slots == expected.captured_slots
    assert actual.n_rows == expected.n_rows
    assert actual.column_names == expected.column_names
    for name in actual.column_names:
        assert_same_cu(actual.column(name), expected.column(name))
    assert actual.memory_bytes == expected.memory_bytes


def specs_of(schema):
    return [
        (i, c.ctype is ColumnType.NUMBER) for i, c in enumerate(schema.columns)
    ]


# -- properties ---------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_build_equals_scalar_reference(data):
    segment, dbas = data.draw(segments())
    columns = data.draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from([c.name for c in SCHEMA.columns]),
                unique=True,
            ),
        )
    )
    args = (segment, SCHEMA, 0, dbas, SNAPSHOT, Txns())
    actual = IMCU.build(
        *args, inmemory_columns=columns, expressions=EXPRESSIONS,
    )
    expected = naive_build(
        *args, inmemory_columns=columns, expressions=EXPRESSIONS,
    )
    assert_same_unit(actual, expected)


@settings(max_examples=150, deadline=None)
@given(rows=row_lists())
def test_block_encode_equals_reference_and_width_one(rows):
    cus, __ = encode_rows(row_matrix(rows, SCHEMA.arity), specs_of(SCHEMA))
    for (index, is_numeric), cu in zip(specs_of(SCHEMA), cus):
        values = [row[index] for row in rows]
        assert_same_cu(cu, naive_encode_column(values, is_numeric))
        assert_same_cu(encode_column(values, is_numeric), cu)
        if not is_numeric:
            assert_same_cu(DictionaryCU(values), cu)


# -- the hazard list, one test each --------------------------------------
def one_block_segment(rows, xid=VISIBLE[0]):
    segment = Segment(700, BlockStore(), rows_per_block=max(len(rows), 1))
    block = segment.ensure_block(1)
    for slot, values in enumerate(rows):
        block.apply_at_slot(slot, values, xid, 1)
    return segment


def build(segment, dbas=(1,), txns=None, **kwargs):
    return IMCU.build(
        segment, SCHEMA, 0, list(dbas), SNAPSHOT, txns or Txns(), **kwargs
    )


def test_none_is_null_but_nan_is_a_value():
    """``astype(float64)`` turns None into nan without raising: NULLs must
    come from the cells, and a stored NaN must stay a non-NULL value."""
    rows = [(0, None, math.nan, None, None, None), (1, math.nan, None, "a", None, None)]
    unit = build(one_block_segment(rows))
    assert unit.column("n1").null_mask().tolist() == [True, False]
    assert unit.column("n2").null_mask().tolist() == [False, True]
    decoded = unit.column("n1").take([0, 1])
    assert decoded[0] is None and math.isnan(decoded[1])
    # NULL cells hold 0.0 in the data vector, exactly like the reference
    assert cu_buffers(unit.column("n1"))["data"][0] == 0.0


def test_int_float_identity_is_per_cell():
    rows = [(0, 20, 20.0, None, None, None), (1, 20.0, 20, None, None, None),
            (2, None, 2**53 + 1, None, None, None)]
    unit = build(one_block_segment(rows))
    assert repr(unit.column("n1").take([0, 1, 2])) == "[20, 20.0, None]"
    assert repr(unit.column("n2").take([0, 1])) == "[20.0, 20]"
    assert repr(unit.column("id").take([0, 1, 2])) == "[0, 1, 2]"


def test_trailing_nul_strings_keep_their_own_codes():
    """A numpy 'U' array strips trailing NULs: "a" and "a\\x00" would share
    a dictionary code."""
    values = ["a", "a\x00", "", "a\x00\x00", "a"]
    rows = [(i, None, None, v, None, None) for i, v in enumerate(values)]
    cu = build(one_block_segment(rows)).column("c1")
    assert cu_dictionary(cu) == ["", "a", "a\x00", "a\x00\x00"]
    assert cu.take(range(5)) == values


def test_zero_row_unit_has_every_column():
    """``np.array([], dtype=object)`` is shape (0,), not (0, arity)."""
    assert row_matrix([], SCHEMA.arity).shape == (0, SCHEMA.arity)
    for segment, dbas in (
        (Segment(700, BlockStore(), 4), [5, 6]),  # nothing materialised
        (one_block_segment([]), [1]),  # an empty block
    ):
        unit = build(segment, dbas, expressions=EXPRESSIONS)
        assert unit.n_rows == 0 and unit.rowids == []
        assert set(unit.captured_slots.values()) == {0}
        assert len(unit.column_names) == SCHEMA.arity + len(EXPRESSIONS)
        assert unit.column("c1").take([]) == []
        assert SMU(unit).invalid_slots_by_dba() == {}


def test_commit_memo_lives_for_one_build_only():
    """A writer uncommitted at one build and committed before the next
    must be seen by the next: the memo may not outlive a build."""
    xid = TransactionId(3, 1)
    commits: dict = {}

    class Live:
        lookups = 0

        def commit_scn_of(self, who):
            Live.lookups += 1
            return commits.get(who)

    rows = [(i, i, None, "v", None, None) for i in range(6)]
    segment = one_block_segment(rows[:3], xid)
    other = segment.ensure_block(2)
    for slot, values in enumerate(rows[3:]):
        other.apply_at_slot(slot, values, xid, 1)
    assert build(segment, (1, 2), Live()).n_rows == 0
    assert Live.lookups == 1  # ...and within a build it is shared by blocks
    commits[xid] = SNAPSHOT
    assert build(segment, (1, 2), Live()).n_rows == 6


def truncate_chain(block, slot):
    """Rewrite the slot's head, then prune the original away."""
    head = chain_of(block, slot).current
    block.write_slot(slot, head.values, head.xid, head.scn)
    block.prune_undo(1)


def test_truncated_chain_still_raises():
    segment = one_block_segment([(0, 1, 2, "a", "b", "c")], HIDDEN[0])
    truncate_chain(segment._store.get(1), 0)
    with pytest.raises(SnapshotTooOldError):
        build(segment)


def test_unsettled_slot_hides_a_truncated_one_behind_it():
    """The walk ends at the first unsettled slot, as the scalar loop did:
    whatever lies behind it is not read, so it cannot raise."""
    rows = [(i, 1, 2, "a", "b", "c") for i in range(3)]
    segment = one_block_segment(rows, HIDDEN[0])
    truncate_chain(segment._store.get(1), 2)
    unit = build(segment)
    assert unit.n_rows == 0 and unit.captured_slots == {1: 0}


def test_block_buffers_are_contiguous_views_with_unchanged_footprint():
    rows = [(i, float(i), None, f"s{i % 3}", "k", None) for i in range(32)]
    unit = build(one_block_segment(rows))
    reference = naive_build(
        one_block_segment(rows), SCHEMA, 0, [1], SNAPSHOT, Txns()
    )
    assert unit.memory_bytes == reference.memory_bytes
    for name in unit.column_names:
        for array in cu_buffers(unit.column(name)).values():
            assert array.flags.c_contiguous and array.ndim == 1


def test_memory_bytes_computed_once(monkeypatch):
    calls = itertools.count()
    real = compression._dictionary_bytes

    def counting(dictionary):
        next(calls)
        return real(dictionary)

    monkeypatch.setattr(compression, "_dictionary_bytes", counting)
    rows = [(i, 1, 2, "a", "b" * (i % 2), "c") for i in range(8)]
    unit = build(one_block_segment(rows))
    first = unit.memory_bytes
    after_first = next(calls)
    assert unit.memory_bytes == first
    assert unit.column("c1").memory_bytes == unit.column("c1").memory_bytes
    assert next(calls) == after_first + 1  # only our own next() moved it


def test_address_index_answers_from_the_arrays():
    """Every index answer comes from the two address arrays the build
    lays down."""
    rows = [(i, 1, 2, "a", "b", "c") for i in range(5)]
    unit = build(one_block_segment(rows))
    assert unit.row_dbas.dtype == unit.row_slots.dtype == np.int64
    assert row_position(unit, RowId(1, 3)) == 3
    assert row_position(unit, RowId(1, 9)) is None
    assert row_position(unit, RowId(2, 0)) is None
    assert unit.positions_for_dba(1).tolist() == [0, 1, 2, 3, 4]
    assert unit.positions_for_dba(2).tolist() == []
    positions, hit = unit.locate_keys(
        row_keys(np.array([1, 1, 1, 3]), np.array([4, 0, 7, 0]))
    )
    assert positions.tolist() == [4, 0]
    assert hit.tolist() == [True, True, False, False]
    assert unit.slots_by_dba(np.array([3, 1])) == {1: [3, 1]}
