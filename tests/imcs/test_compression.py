"""Tests for column compression units."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imcs import DictionaryCU, NumericCU
from repro.imcs.compression import row_matrix

from tests.helpers import (
    cu_dictionary,
    encode_column,
    encoded_unit,
    merge_rows,
)

#: one NUMBER column, matrix column 0, and its name
SPEC, NAMES = [(0, True)], ["n"]


class TestNumericCU:
    def test_roundtrip_and_nulls(self):
        cu = encode_column([1, None, 2.5, -3], True)
        assert cu.take(range(4)) == [1, None, 2.5, -3]

    def test_eq_mask(self):
        cu = encode_column([1, 2, 2, None, 3], True)
        assert list(cu.eq_mask(2)) == [False, True, True, False, False]

    def test_eq_mask_null_never_matches(self):
        cu = encode_column([None, 1], True)
        assert not cu.eq_mask(None).any()

    def test_range_masks(self):
        cu = encode_column([1, 5, 10, None], True)
        assert list(cu.range_mask(5, None)) == [False, True, True, False]
        assert list(cu.range_mask(None, 5, hi_inclusive=False)) == [
            True, False, False, False,
        ]
        assert list(cu.range_mask(2, 9)) == [False, True, False, False]

    def test_min_max_ignore_nulls(self):
        cu = encode_column([None, 4, 9], True)
        assert cu.min_value == 4
        assert cu.max_value == 9

    def test_all_null_min_max(self):
        cu = encode_column([None, None], True)
        assert cu.min_value is None and cu.max_value is None

    def test_memory_bytes_positive(self):
        assert encode_column([1, 2, 3], True).memory_bytes > 0

    def test_decode_preserves_int_vs_float_identity(self):
        """Regression: the float64 storage cannot distinguish 20 from
        20.0, and decode used to hand back ints for any integral value --
        so a column loaded with 20.0 scanned as 20, diverging from the
        row store.  Int-ness is recorded at encode time per row."""
        cu = encode_column([20, 20.0, -3.0, -3, None, 1.5], True)
        decoded = cu.take(range(6))
        assert decoded == [20, 20.0, -3.0, -3, None, 1.5]
        types = [type(v) for v in decoded if v is not None]
        assert types == [int, float, float, int, float]

    def test_take_preserves_int_vs_float_identity(self):
        cu = encode_column([0.0, 7, None, 8.0], True)
        taken = cu.take(np.array([3, 0, 1, 2]))
        assert taken == [8.0, 0.0, 7, None]
        assert [type(v) for v in taken[:3]] == [float, float, int]

    #: every (any NULL) x (any int) class a column can fall in, with the
    #: all-NULL, all-int and mixed int/float corners
    CLASSES = {
        "floats": [1.5, 20.0, -3.25, 0.0, 7.0],
        "ints": [1, 20, -3, 0, 7],
        "mixed": [1, 20.0, -3, 0.5, 7],
        "floats+null": [1.5, None, 20.0, None, 0.0],
        "ints+null": [None, 20, -3, None, 7],
        "mixed+null": [1, None, 2.5, None, 7.0],
        "all-null": [None, None, None],
        "empty": [],
    }

    @staticmethod
    def assert_decodes_like_one_row_takes(cu, values):
        """``take`` and ``stats_for_positions`` answer from facts recorded
        at build (no NULL / no int anywhere: skip the gather); a one-row
        ``take`` asks each cell alone.  They must agree, value and type,
        on any positions."""
        n = len(values)
        cells = [cu.take([i])[0] for i in range(n)]
        assert cells == values
        assert list(map(type, cells)) == list(map(type, values))
        for positions in (
            list(range(n)), list(range(n))[::-1], list(range(0, n, 2)),
            [n - 1] * 3 if n else [], [],
        ):
            expected = [values[i] for i in positions]
            for asked in (positions, np.array(positions, dtype=np.int64)):
                taken = cu.take(asked)
                assert taken == expected
                assert list(map(type, taken)) == list(map(type, expected))
                present = [v for v in expected if v is not None]
                count, total, low, high = cu.stats_for_positions(asked)
                assert (count, low, high) == (
                    len(present),
                    min(present, default=None), max(present, default=None),
                )
                assert total == float(np.sum(np.array(present, dtype=float)))
                assert type(total) is float

    @pytest.mark.parametrize("name", CLASSES)
    def test_take_stats_and_get_agree_in_every_null_int_class(self, name):
        values = self.CLASSES[name]
        self.assert_decodes_like_one_row_takes(
            encode_column(values, True), values
        )

    @pytest.mark.parametrize("old_name", CLASSES)
    @pytest.mark.parametrize("fresh_name", CLASSES)
    def test_a_delta_merged_column_knows_its_own_class(
        self, old_name, fresh_name
    ):
        """Delta repopulation merges a carried CU with fresh cells: the
        merged column's class is its own, whatever its parents' were (a
        NULL-free parent may gain a NULL, an int-bearing one may lose its
        last int with the rows that were dropped)."""
        old, fresh = self.CLASSES[old_name], self.CLASSES[fresh_name]
        if not old:
            return
        keep = np.arange(0, len(old), 2)  # drops ``mixed``'s only float
        kept = [old[i] for i in keep.tolist()]
        base = encoded_unit(row_matrix([(v,) for v in old], 1), SPEC, NAMES)
        take = np.arange(len(kept) + len(fresh))[::-1]
        matrix = row_matrix([(v,) for v in fresh], 1)
        (merged,), __ = merge_rows(base, NAMES, keep, matrix, SPEC, take)
        self.assert_decodes_like_one_row_takes(merged, (kept + fresh)[::-1])

    def test_eq_mask_non_numeric_value_is_all_false(self):
        """Satellite regression: a string literal against a NUMBER column
        must produce an empty match, not raise from ``float(value)``."""
        cu = encode_column([1, 2, None], True)
        assert not cu.eq_mask("two").any()
        assert not cu.eq_mask("2").any()  # no implicit string coercion
        assert not cu.eq_mask(None).any()
        assert not cu.eq_mask(object()).any()
        assert list(cu.eq_mask(2)) == [False, True, False]


class TestDictionaryCU:
    def test_roundtrip(self):
        cu = DictionaryCU(["b", None, "a", "b"])
        assert cu.take(range(4)) == ["b", None, "a", "b"]

    def test_dictionary_is_sorted_and_deduped(self):
        cu = DictionaryCU(["z", "a", "z", "m"])
        assert cu_dictionary(cu) == ["a", "m", "z"]

    def test_eq_mask_via_code(self):
        cu = DictionaryCU(["x", "y", "x", None])
        assert list(cu.eq_mask("x")) == [True, False, True, False]
        assert not cu.eq_mask("absent").any()
        assert not cu.eq_mask(5).any()  # wrong type never matches

    def test_range_mask_order_preserving(self):
        cu = DictionaryCU(["apple", "fig", "kiwi", "pear", None])
        got = cu.range_mask("b", "l")
        assert list(got) == [False, True, True, False, False]

    def test_range_exclusive_bounds(self):
        cu = DictionaryCU(["a", "b", "c"])
        got = cu.range_mask("a", "c", lo_inclusive=False, hi_inclusive=False)
        assert list(got) == [False, True, False]

    def test_min_max(self):
        cu = DictionaryCU(["m", "a", "z"])
        assert cu.min_value == "a"
        assert cu.max_value == "z"


class TestEncodeColumn:
    def test_numeric_selected(self):
        assert isinstance(encode_column([1, 2], is_numeric=True), NumericCU)

    def test_dictionary_for_high_churn_strings(self):
        values = [f"v{i}" for i in range(100)]
        assert isinstance(encode_column(values, False), DictionaryCU)

    def test_dictionary_for_long_runs(self):
        values = ["a"] * 50 + ["b"] * 50
        cu = encode_column(values, False)
        assert type(cu) is DictionaryCU and cu_dictionary(cu) == ["a", "b"]

    def test_empty_column(self):
        cu = encode_column([], is_numeric=False)
        assert cu.n_rows == 0


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.none(), st.sampled_from(["a", "bb", "ccc", "dd", "e"])),
        max_size=200,
    )
)
def test_encodings_agree_property(values):
    """Property: the dictionary encoding agrees with a naive python
    evaluation."""
    cu = DictionaryCU(values)
    assert list(cu.eq_mask("bb")) == [v == "bb" for v in values]
    expected_range = [v is not None and "b" <= v <= "cc" for v in values]
    assert list(cu.range_mask("b", "cc")) == expected_range
    assert cu.take(range(len(values))) == values
