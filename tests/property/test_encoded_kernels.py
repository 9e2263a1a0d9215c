"""Property: encoded-domain CU kernels equal naive decode-then-evaluate.

The vectorised numeric / dictionary gathers, the shared-dictionary masks
and the encoded-domain ``stats_for_positions`` folds must all be
pointwise-identical to the obvious reference: evaluate per value over
the very list the CU was built from (never a decode by the CU under
test).  Hypothesis drives random encodings
including NULL runs, all-NULL columns and empty CUs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.imcs.compression import (
    DictionaryCU,
    GlobalDictionary,
    NumericCU,
    SharedDictionaryCU,
)

# small alphabets force runs and repeated values
WORDS = ["alpha", "beta", "gamma", "delta", None]
numbers = st.one_of(
    st.none(),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(
        min_value=-1e6, max_value=1e6,
        allow_nan=False, allow_infinity=False,
    ),
)
strings = st.sampled_from(WORDS)
string_lists = st.lists(strings, min_size=0, max_size=120)
number_lists = st.lists(numbers, min_size=0, max_size=120)


def positions_for(n: int):
    if n == 0:
        return st.just([])
    return st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=0, max_size=n
    )


def naive_eq(values, needle):
    return [v is not None and v == needle for v in values]


def naive_range(values, lo, hi, lo_inc, hi_inc):
    out = []
    for v in values:
        if v is None:
            out.append(False)
            continue
        ok = True
        if lo is not None:
            ok = v >= lo if lo_inc else v > lo
        if ok and hi is not None:
            ok = v <= hi if hi_inc else v < hi
        out.append(ok)
    return out


def naive_stats(values, positions):
    count, total = 0, 0.0
    minimum = maximum = None
    for p in positions:
        v = values[p]
        if v is None:
            continue
        count += 1
        if isinstance(v, (int, float)):
            total += v
        if minimum is None or v < minimum:
            minimum = v
        if maximum is None or v > maximum:
            maximum = v
    return count, total, minimum, maximum


def shared_of(values) -> SharedDictionaryCU:
    dictionary = GlobalDictionary()
    return SharedDictionaryCU(values, dictionary)


# ----------------------------------------------------------------------
# vectorised decode paths
# ----------------------------------------------------------------------
class TestVectorisedTake:
    @given(number_lists.flatmap(
        lambda values: st.tuples(st.just(values), positions_for(len(values)))
    ))
    def test_numeric_take_values_and_types(self, values_and_positions):
        values, positions = values_and_positions
        cu = NumericCU(values)
        got = cu.take(np.asarray(positions, dtype=np.int64))
        for g, p in zip(got, positions):
            v = values[p]
            if v is None:
                assert g is None
            elif isinstance(v, int):
                assert type(g) is int and g == v
            else:
                assert type(g) is float and g == pytest.approx(v)

    @given(string_lists.flatmap(
        lambda values: st.tuples(st.just(values), positions_for(len(values)))
    ))
    def test_dictionary_take(self, values_and_positions):
        values, positions = values_and_positions
        cu = DictionaryCU(values)
        assert cu.take(np.asarray(positions, dtype=np.int64)) == [
            values[p] for p in positions
        ]

    @given(string_lists.flatmap(
        lambda values: st.tuples(st.just(values), positions_for(len(values)))
    ))
    def test_shared_dictionary_take(self, values_and_positions):
        values, positions = values_and_positions
        cu = shared_of(values)
        assert cu.take(np.asarray(positions, dtype=np.int64)) == [
            values[p] for p in positions
        ]

    @given(number_lists.flatmap(
        lambda values: st.tuples(st.just(values), positions_for(len(values)))
    ))
    def test_numeric_stats(self, values_and_positions):
        values, positions = values_and_positions
        cu = NumericCU(values)
        count, total, minimum, maximum = cu.stats_for_positions(
            np.asarray(positions, dtype=np.int64)
        )
        e_count, e_total, e_min, e_max = naive_stats(values, positions)
        assert count == e_count
        assert total == pytest.approx(e_total)
        assert minimum == (pytest.approx(e_min) if e_min is not None else None)
        assert maximum == (pytest.approx(e_max) if e_max is not None else None)

    @given(string_lists.flatmap(
        lambda values: st.tuples(st.just(values), positions_for(len(values)))
    ))
    def test_dictionary_stats(self, values_and_positions):
        values, positions = values_and_positions
        for cu in (DictionaryCU(values), shared_of(values)):
            assert cu.stats_for_positions(
                np.asarray(positions, dtype=np.int64)
            ) == naive_stats(values, positions)


class TestSharedDictionaryMasks:
    """The global dictionary is assignment-ordered (append-only), so the
    vectorised qualifying-code set must work on an *unsorted* table."""

    @given(string_lists, strings, strings, st.booleans(), st.booleans())
    def test_range_mask(self, values, lo, hi, lo_inc, hi_inc):
        cu = shared_of(values)
        expected = naive_range(values, lo, hi, lo_inc, hi_inc)
        got = cu.range_mask(lo, hi, lo_inclusive=lo_inc, hi_inclusive=hi_inc)
        assert got.tolist() == expected

    @given(string_lists, strings)
    def test_eq_mask(self, values, needle):
        cu = shared_of(values)
        assert cu.eq_mask(needle).tolist() == naive_eq(values, needle)

    def test_range_mask_sees_dictionary_growth(self):
        """The decode-table cache must refresh when the shared dictionary
        grows after this CU was built."""
        dictionary = GlobalDictionary()
        cu = SharedDictionaryCU(["m", "a"], dictionary)
        assert cu.range_mask("a", "m").tolist() == [True, True]
        later = SharedDictionaryCU(["z", "b"], dictionary)
        assert later.range_mask("b", "z").tolist() == [True, True]
        assert cu.range_mask("a", "b").tolist() == [False, True]
