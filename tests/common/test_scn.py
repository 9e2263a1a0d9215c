"""Tests for the SCN clock."""

import pytest

from repro.common import NULL_SCN, SCNClock


def test_null_scn_is_zero():
    assert NULL_SCN == 0


def test_clock_starts_at_given_value():
    clock = SCNClock(start=5)
    assert clock.current == 5


def test_clock_rejects_reserved_start():
    with pytest.raises(ValueError):
        SCNClock(start=0)


def test_next_is_strictly_increasing():
    clock = SCNClock()
    seen = [clock.next() for __ in range(100)]
    assert seen == sorted(seen)
    assert len(set(seen)) == 100


def test_next_after_advance_is_higher():
    clock = SCNClock(99)
    assert clock.next() == 100
