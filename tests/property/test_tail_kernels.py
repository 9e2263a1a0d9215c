"""Property: the row-store tail's column kernels equal the closures they
replaced, and its fold equals a unit's.

A unit's reconcile tail -- and every run of blocks no unit serves -- is a
:class:`~repro.imcs.smu.TailImage`: the rows one Consistent Read pass made
visible, with a CU per column a scan filters or aggregates on, as an IMCU
holds it.  The scan engine filters it with the IMCU's predicate kernel,
projects the matching rows from their own tuples, and the aggregator folds
it with the CUs' ``stats_for_positions``.  The row-at-a-time filter -- one
compiled closure call per row -- lives in ``tests/naive_predicate.py`` as
the oracle, and the two must agree:

* rows equal by ``repr`` and in order, for every op, on images with NULLs,
  tombstones (``None`` slots), NUMBER columns holding ints, fractional
  floats, both, NaN and +-2**53, VARCHAR2 columns, both kinds of In-
  Memory Expression, and NULL literals (which match no row);
* a literal of the other kind: ``=`` matches nothing, a range raises
  ``TypeError`` on both sides;
* aggregates equal those of a unit encoded from the same rows: count,
  ``total`` by ``float.hex``, MIN/MAX by ``repr``.

The scan-level checks at the end cover what only a live SMU shows: an
epoch bump drops the image and its CUs, and a NUMBER int at +-2**53
round-trips exactly through the IMCU and the tail.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import SCNClock, TransactionId
from repro.common.config import IMCSConfig
from repro.imcs import (
    InMemoryColumnStore,
    PopulationEngine,
    Predicate,
    ScanEngine,
)
from repro.imcs.aggregate import _Accumulator
from repro.imcs.compression import encode_column
from repro.imcs.expressions import Expression, ExpressionSet, RowResolver
from repro.imcs.scan import ScanResult, _CompiledScan, unit_matched_positions
from repro.imcs.smu import TailImage
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table

from tests.naive_predicate import closure_tail

LIMIT = 2**53

SCHEMA = Schema(
    [
        Column("id", ColumnType.NUMBER, nullable=False),
        Column("n_int", ColumnType.NUMBER),
        Column("n_float", ColumnType.NUMBER),
        Column("n_mixed", ColumnType.NUMBER),
        Column("c", ColumnType.VARCHAR2),
    ]
)
EXPRESSIONS = ExpressionSet()
EXPRESSIONS.add(Expression(
    "e_num", ("n_int", "n_float"),
    lambda a, b: None if a is None or b is None else a * b,
))
EXPRESSIONS.add(Expression(
    "e_str", ("c",), lambda c: None if c is None else c[:1], is_numeric=False,
))
RESOLVER = RowResolver(SCHEMA, EXPRESSIONS)
NUMBER_NAMES = ["id", "n_int", "n_float", "n_mixed", "e_num"]
TEXT_NAMES = ["c", "e_str"]
NAMES = NUMBER_NAMES + TEXT_NAMES

ints = st.one_of(st.integers(-50, 50), st.sampled_from([LIMIT, -LIMIT, 0]))
fractions = st.integers(-400, 400).map(lambda i: i / 10)
floats = st.one_of(
    fractions, st.sampled_from([math.nan, math.inf, -0.0, 0.1, float(LIMIT)])
)
texts = st.sampled_from(["", "a", "ab", "b", "ba", "z"])


@st.composite
def rows(draw):
    return (
        draw(ints),
        draw(st.none() | ints),
        draw(st.none() | floats),
        draw(st.none() | ints | floats),
        draw(st.none() | texts),
    )


images = st.lists(st.none() | rows(), max_size=30)


def literal_of(kind: str):
    number = st.one_of(ints, fractions)
    return st.none() | (number if kind == "number" else texts)


@st.composite
def predicates(draw, name, kind):
    """One predicate on ``name`` with a literal of ``kind``."""
    op = draw(st.sampled_from(
        ["=", "!=", "<", "<=", ">", ">=", "between", "is_null",
         "is_not_null"]
    ))
    value = draw(literal_of(kind))
    value2 = draw(literal_of(kind)) if op == "between" else None
    return Predicate(name, op, value, value2)


def run_tail(compiled: _CompiledScan, image: TailImage, result) -> None:
    """What the scan engine does with a tail image's rows."""
    positions = unit_matched_positions(image, None, compiled.predicates)
    compiled.matches(image, positions, result)


def kernel_rows(visible, chosen, names) -> list[tuple]:
    result = ScanResult()
    image = TailImage(visible, RESOLVER)
    if image.n_rows:
        run_tail(_CompiledScan(RESOLVER, chosen, names), image, result)
    return result.rows


def kind_of(name: str) -> str:
    return "number" if name in NUMBER_NAMES else "text"


# ----------------------------------------------------------------------
# predicates and projection
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(images, st.data())
@example(
    [(1, 2, 0.5, math.nan, "a"), None, (2, None, None, None, None)],
    None,
).via("NaN is a value and NULL is not")
def test_one_predicate_rows_equal_the_closures(visible, data):
    if data is None:  # the pinned example: every op on n_mixed
        cases = [
            Predicate("n_mixed", op, 1.0, 2.0)
            for op in ("=", "!=", "<", "between", "is_null", "is_not_null")
        ]
    else:
        name = data.draw(st.sampled_from(NAMES))
        cases = [data.draw(predicates(name, kind_of(name)))]
    for predicate in cases:
        names = ["id", predicate.column]
        expected = closure_tail(visible, [predicate], names, RESOLVER)
        got = kernel_rows(visible, [predicate], names)
        assert repr(got) == repr(expected), predicate


@settings(max_examples=200, deadline=None)
@given(images, st.data())
def test_conjunctions_and_projections_equal_the_closures(visible, data):
    chosen = [
        data.draw(predicates(name, kind_of(name)))
        for name in data.draw(st.lists(st.sampled_from(NAMES), max_size=3))
    ]
    names = data.draw(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True)
    )
    expected = closure_tail(visible, chosen, names, RESOLVER)
    assert repr(kernel_rows(visible, chosen, names)) == repr(expected)


@settings(max_examples=200, deadline=None)
@given(images, st.data())
def test_a_literal_of_the_other_kind(visible, data):
    """``=`` matches nothing; a range raises on both sides when a row has
    a value to compare (the closure compares only those)."""
    name = data.draw(st.sampled_from(NAMES))
    other = "text" if kind_of(name) == "number" else "number"
    value = data.draw(literal_of(other).filter(lambda v: v is not None))
    eq = Predicate.eq(name, value)
    assert kernel_rows(visible, [eq], ["id"]) == []
    assert closure_tail(visible, [eq], ["id"], RESOLVER) == []
    compared = [
        v for v in (RESOLVER.value(row, name) for row in visible if row)
        if v is not None
    ]
    if not compared:
        return
    for predicate in (
        Predicate.lt(name, value), Predicate.between(name, value, value)
    ):
        with pytest.raises(TypeError):
            closure_tail(visible, [predicate], ["id"], RESOLVER)
        with pytest.raises(TypeError):
            kernel_rows(visible, [predicate], ["id"])


def test_tombstones_and_empty_slots_never_match():
    visible = [None, (1, None, None, None, None), None]
    for predicate in (
        Predicate.is_null("n_int"), Predicate.is_null("e_num"),
        Predicate.is_null("c"),
    ):
        assert kernel_rows(visible, [predicate], ["id"]) == [(1,)]
    assert kernel_rows(visible, [], ["id"]) == [(1,)]
    assert kernel_rows([None, None], [], ["id"]) == []


def test_an_image_builds_each_vector_once():
    calls = []
    expressions = ExpressionSet()
    expressions.add(Expression(
        "e", ("n_int",), lambda v: calls.append(v) or v,
    ))
    image = TailImage(
        [(1, 5, None, None, None), (2, 6, None, None, None)],
        RowResolver(SCHEMA, expressions),
    )
    for __ in range(3):
        assert image.column("e") is image.column("e")
        run_tail(
            _CompiledScan(image.resolver, [Predicate.eq("e", 5)], ["id"]),
            image, ScanResult(),
        )
    assert calls == [5, 6]  # evaluated once per image, not per scan


# ----------------------------------------------------------------------
# aggregates
# ----------------------------------------------------------------------
def state(accumulator) -> tuple:
    return (
        accumulator.count,
        float(accumulator.total).hex(),
        repr(accumulator.minimum),
        repr(accumulator.maximum),
    )


class EncodedUnit:
    """The same rows as a unit holds them: each column encoded by the
    IMCU's own encoder (a NumericCU, or a sorted dictionary that goes run-
    length where the runs pay)."""

    def __init__(self, rows: list) -> None:
        self.rows = rows
        self.n_rows = len(rows)

    def column(self, name: str):
        values = [RESOLVER.value(row, name) for row in self.rows]
        return encode_column(values, kind_of(name) == "number")


def fold(units, chosen, name) -> _Accumulator:
    """Each unit filtered by the scan's kernel and folded, in order, as
    the aggregator folds its partials."""
    accumulator = _Accumulator()
    for unit in units:
        positions = unit_matched_positions(unit, None, chosen)
        accumulator.merge_encoded(
            *unit.column(name).stats_for_positions(positions)
        )
    return accumulator


@settings(max_examples=300, deadline=None)
@given(st.lists(images, min_size=1, max_size=3), st.data())
@example(
    [[(0, 3, 1.0, 3, None), (1, 1, math.nan, 1.0, None)],
     [(2, -3, -5.0, math.nan, None)]],
    None,
).via("ints fold to floats; a NaN in either image is sticky")
def test_a_tails_fold_equals_a_units(tails, data):
    """Several images in scan order, each filtered and folded: the same
    answer as units encoded from the same rows."""
    if data is None:
        cases = [(name, []) for name in ("n_int", "n_float", "n_mixed")]
    else:
        name, on = (data.draw(st.sampled_from(NAMES)) for __ in range(2))
        cases = [(name, [data.draw(predicates(on, kind_of(on)))])]
    images = [TailImage(visible, RESOLVER) for visible in tails]
    units = [EncodedUnit(image.rows) for image in images]
    for name, chosen in cases:
        ours = fold([image for image in images if image.n_rows], chosen, name)
        assert state(ours) == state(fold(units, chosen, name)), name


def test_a_nan_min_max_does_not_depend_on_the_partials_order():
    for partials in itertools.permutations([
        (1, 3.0, 3.0, 3.0), (1, math.nan, math.nan, math.nan),
        (2, 1.0, -1.0, 2.0),
    ]):
        accumulator = _Accumulator()
        for partial in partials:
            accumulator.merge_encoded(*partial)
        assert math.isnan(accumulator.minimum), partials
        assert math.isnan(accumulator.maximum), partials


# ----------------------------------------------------------------------
# at scan level
# ----------------------------------------------------------------------
class TxnView:
    def __init__(self) -> None:
        self.commits: dict[TransactionId, int] = {}

    def commit_scn_of(self, xid):
        return self.commits.get(xid)


def populated_table(values):
    schema = Schema([
        Column("id", ColumnType.NUMBER, nullable=False),
        Column("n1", ColumnType.NUMBER),
    ])
    oid = itertools.count(800)
    table = Table(
        "T", schema, BlockStore(),
        object_id_allocator=lambda: next(oid), rows_per_block=4,
    )
    clock, txns = SCNClock(), TxnView()
    xid = TransactionId(1, 1)
    rowids = [
        table.insert_row((i, value), xid, clock.next())[1]
        for i, value in enumerate(values)
    ]
    txns.commits[xid] = clock.next()
    store = InMemoryColumnStore()
    store.enable(table)
    engine = PopulationEngine(
        store, txns, lambda: clock.current,
        IMCSConfig(imcu_target_rows=8),
    )
    engine.schedule_all()
    while engine.run_one_task() is not None:
        pass
    return table, clock, txns, store, rowids


def test_an_epoch_bump_drops_the_image_and_its_vectors():
    """Between two queries at one QuerySCN an invalidation flushed for a
    later commit makes one more row a tail row: a vector kept across the
    epoch would lose it."""
    table, clock, txns, store, rowids = populated_table(
        [float(i) for i in range(8)]
    )
    snapshot = clock.current
    oid = table.default_partition.object_id
    engine = ScanEngine(store, txns)
    store.invalidate(oid, rowids[1].dba, (rowids[1].slot,), snapshot)
    query = [Predicate.le("n1", 3.0)]
    first = engine.scan(table, snapshot, query, ["id"])
    assert first.stats.fallback_rows == 1
    xid = TransactionId(1, 2)
    table.update_row(rowids[2], {"n1": 100.0}, xid, clock.next(), txns)
    txns.commits[xid] = clock.next()
    store.invalidate(oid, rowids[2].dba, (rowids[2].slot,), clock.current)
    again = engine.scan(table, snapshot, query, ["id"])
    assert first.rows == [(0,), (2,), (3,), (1,)]
    assert again.rows == [(0,), (3,), (1,), (2,)]
    assert again.stats.fallback_rows == 2


@pytest.mark.parametrize("value", [LIMIT, -LIMIT, LIMIT - 1, 2.5])
def test_numbers_at_two_to_the_53_round_trip_exactly(value):
    """Through the IMCU's projection and gathers, and through the tail."""
    table, clock, txns, store, rowids = populated_table([value, 1, 2])
    snapshot = clock.current
    engine = ScanEngine(store, txns)
    clean = engine.scan(table, snapshot, [Predicate.eq("n1", value)])
    assert clean.stats.fallback_rows == 0
    assert repr(clean.rows) == repr([(0, value)])
    oid = table.default_partition.object_id
    store.invalidate(oid, rowids[0].dba, (rowids[0].slot,), snapshot)
    tail = engine.scan(table, snapshot, [Predicate.eq("n1", value)])
    assert tail.stats.fallback_rows == 1
    assert repr(tail.rows) == repr([(0, value)])
    neighbour = value - 1 if value > 0 else value + 1
    missed = engine.scan(table, snapshot, [Predicate.eq("n1", neighbour)])
    assert missed.rows == []
