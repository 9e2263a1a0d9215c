"""Tests for the buffer cache."""

from repro.rowstore import BufferCache


def test_first_touch_is_a_miss_with_cost():
    cache = BufferCache(miss_cost=0.5)
    assert cache.touch(1) == 0.5
    assert cache.touch(1) == 0.0
    assert cache.hits == 1
    assert cache.misses == 1


def test_unlimited_capacity_never_evicts():
    cache = BufferCache()
    for dba in range(1000):
        cache.touch(dba)
    for dba in range(1000):
        assert cache.touch(dba) == 0.0
    assert cache.resident_blocks == 1000


def test_hit_ratio():
    cache = BufferCache()
    cache.touch(1)
    cache.touch(1)
    cache.touch(1)
    cache.touch(2)
    assert abs(cache.hit_ratio - 0.5) < 1e-9
