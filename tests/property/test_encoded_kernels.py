"""Property: encoded-domain CU kernels equal naive decode-then-evaluate.

The vectorised numeric / dictionary gathers and the encoded-domain
``stats_for_positions`` folds must all be pointwise-identical to the
obvious reference: evaluate per value over the very list the CU was built
from (never a decode by the CU under test).  Hypothesis drives random
encodings including NULL runs, all-NULL columns and empty CUs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.imcs.compression import DictionaryCU

from tests.helpers import encode_column

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
string_lists = st.lists(st.sampled_from(WORDS), min_size=0, max_size=120)
number_lists = st.lists(numbers, min_size=0, max_size=120)


def positions_for(n: int):
    if n == 0:
        return st.just([])
    return st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=0, max_size=n
    )


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


# ----------------------------------------------------------------------
# vectorised decode paths
# ----------------------------------------------------------------------
class TestVectorisedTake:
    @given(number_lists.flatmap(
        lambda values: st.tuples(st.just(values), positions_for(len(values)))
    ))
    def test_numeric_take_values_and_types(self, values_and_positions):
        values, positions = values_and_positions
        cu = encode_column(values, True)
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

    @given(number_lists.flatmap(
        lambda values: st.tuples(st.just(values), positions_for(len(values)))
    ))
    def test_numeric_stats(self, values_and_positions):
        values, positions = values_and_positions
        cu = encode_column(values, True)
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
        assert DictionaryCU(values).stats_for_positions(
            np.asarray(positions, dtype=np.int64)
        ) == naive_stats(values, positions)
