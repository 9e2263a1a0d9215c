"""Tests for the quiesce lock."""

import pytest

from repro.common import QuiesceLock


class TestQuiesceLock:
    def test_exclusive_blocks_shared(self):
        lock = QuiesceLock()
        coord, pop = object(), object()
        assert lock.try_acquire_exclusive(coord)
        assert lock.in_quiesce_period
        assert not lock.try_acquire_shared(pop)
        lock.release_exclusive(coord)
        assert lock.try_acquire_shared(pop)

    def test_shared_blocks_exclusive(self):
        lock = QuiesceLock()
        coord, pop = object(), object()
        assert lock.try_acquire_shared(pop)
        assert not lock.try_acquire_exclusive(coord)
        lock.release_shared(pop)
        assert lock.try_acquire_exclusive(coord)

    def test_multiple_shared_holders(self):
        lock = QuiesceLock()
        p1, p2 = object(), object()
        assert lock.try_acquire_shared(p1)
        assert lock.try_acquire_shared(p2)
        lock.release_shared(p1)
        coord = object()
        assert not lock.try_acquire_exclusive(coord)
        lock.release_shared(p2)
        assert lock.try_acquire_exclusive(coord)

    def test_release_without_hold_raises(self):
        lock = QuiesceLock()
        with pytest.raises(RuntimeError):
            lock.release_shared(object())
        with pytest.raises(RuntimeError):
            lock.release_exclusive(object())
