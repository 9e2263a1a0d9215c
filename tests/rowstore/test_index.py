"""Tests for the hash index, including property-based checks."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import RowId
from repro.rowstore import HashIndex


def rid(i):
    return RowId(i // 64, i % 64)


class TestBasics:
    def test_insert_and_search(self):
        index = HashIndex("id")
        index.insert(5, rid(5))
        index.insert(1, rid(1))
        index.insert(9, rid(9))
        assert index.search(5) == rid(5)
        assert index.search(2) is None
        assert len(index._map) == 3

    def test_overwrite_same_key(self):
        index = HashIndex("id")
        index.insert(5, rid(5))
        index.insert(5, rid(6))
        assert index.search(5) == rid(6)
        assert len(index._map) == 1

    def test_delete(self):
        index = HashIndex("id")
        index.insert(5, rid(5))
        assert index.delete(5)
        assert not index.delete(5)
        assert index.search(5) is None
        assert len(index._map) == 0

    def test_clear(self):
        index = HashIndex("id")
        for i in range(50):
            index.insert(i, rid(i))
        index.clear()
        assert len(index._map) == 0
        assert index.search(10) is None

    def test_string_keys(self):
        index = HashIndex("c1")
        words = ["pear", "apple", "fig", "kiwi"]
        for n, word in enumerate(words):
            index.insert(word, rid(n))
        assert [index.search(w) for w in words] == [rid(n) for n in range(4)]
        assert index.search("plum") is None

    def test_a_null_key_is_not_indexed(self):
        index = HashIndex("n1")
        index.insert(None, rid(1))
        assert len(index._map) == 0
        assert index.search(None) is None
        assert not index.delete(None)

    def test_a_key_of_the_other_kind_misses(self):
        index = HashIndex("id")
        index.insert(3, rid(3))
        assert index.search("3") is None
        assert index.search(3.0) == rid(3)  # NUMBER: 3 and 3.0 are one value


class TestRandomised:
    def test_large_shuffled_insert_then_delete_half(self):
        rng = random.Random(7)
        keys = list(range(2000))
        rng.shuffle(keys)
        index = HashIndex("id")
        for k in keys:
            index.insert(k, rid(k))
        removed = set(keys[:1000])
        for k in removed:
            assert index.delete(k)
        for k in range(2000):
            if k in removed:
                assert index.search(k) is None
            else:
                assert index.search(k) == rid(k)
        assert len(index._map) == 1000


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 200)),
        max_size=300,
    )
)
def test_index_matches_dict_model(ops):
    """Property: the index behaves exactly like a dict."""
    index = HashIndex("id")
    model: dict[int, RowId] = {}
    for op, key in ops:
        if op == "ins":
            index.insert(key, rid(key))
            model[key] = rid(key)
        else:
            assert index.delete(key) == (key in model)
            model.pop(key, None)
    assert len(index._map) == len(model)
    for k in range(201):
        assert index.search(k) == model.get(k)
