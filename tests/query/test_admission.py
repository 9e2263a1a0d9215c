"""Unit tests for the admission controller (session-pool bounds)."""

from __future__ import annotations

import pytest

from repro.query import AdmissionController


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestLimits:
    def test_global_limit(self):
        ctrl = AdmissionController(limit=2)
        assert ctrl.try_admit()
        assert ctrl.try_admit()
        assert not ctrl.try_admit()
        assert ctrl.active == 2 and ctrl.rejected == 1
        ctrl.release()
        assert ctrl.try_admit()

    def test_unbounded_by_default(self):
        ctrl = AdmissionController()
        for __ in range(100):
            assert ctrl.try_admit()

    def test_release_without_admit_raises(self):
        from repro.common.errors import InvalidStateError

        ctrl = AdmissionController()
        with pytest.raises(InvalidStateError):
            ctrl.release()


class TestQueue:
    def test_waiter_granted_on_release(self):
        ctrl = AdmissionController(limit=1)
        assert ctrl.try_admit()
        granted = []
        ctrl.enqueue(lambda: granted.append(True))
        assert not granted and ctrl.queue_depth == 1
        ctrl.release()
        assert granted == [True]
        assert ctrl.queue_depth == 0 and ctrl.active == 1

    def test_fifo_order(self):
        ctrl = AdmissionController(limit=1)
        ctrl.try_admit()
        order = []
        ctrl.enqueue(lambda: order.append("first"))
        ctrl.enqueue(lambda: order.append("second"))
        ctrl.release()
        assert order == ["first"]
        ctrl.release()
        assert order == ["first", "second"]

    def test_newcomer_cannot_jump_queue(self):
        ctrl = AdmissionController(limit=2)
        ctrl.try_admit()
        ctrl.try_admit()
        ctrl.enqueue(lambda: None)
        ctrl.release()  # waiter takes the freed slot...
        assert not ctrl.try_admit()  # ...and the pool is full again


class TestEligibility:
    """Waiters gated on an external condition (read-your-writes: "a
    standby whose published QuerySCN covers my commitSCN exists")."""

    def test_ineligible_waiter_parked_without_a_grant(self):
        ctrl = AdmissionController(limit=1)
        granted = []
        ctrl.enqueue(
            lambda: granted.append(True), eligible=lambda: False
        )
        # a slot is free, but the predicate says the waiter can't use it
        assert not granted and ctrl.queue_depth == 1
        assert ctrl.active == 0

    def test_pump_grants_when_condition_flips(self):
        ctrl = AdmissionController(limit=1)
        qualified = []
        granted = []
        ctrl.enqueue(
            lambda: granted.append(True),
            eligible=lambda: bool(qualified),
        )
        ctrl.pump()
        assert not granted
        qualified.append("standby caught up")
        ctrl.pump()
        assert granted == [True] and ctrl.active == 1

    def test_newcomer_may_pass_an_ineligible_waiter(self):
        # the parked waiter cannot use the slot *now*, so fairness does
        # not require holding the newcomer back
        ctrl = AdmissionController(limit=1)
        ctrl.enqueue(lambda: None, eligible=lambda: False)
        assert ctrl.try_admit()
        assert ctrl.queue_depth == 1

    def test_eligible_waiter_still_blocks_newcomers(self):
        ctrl = AdmissionController(limit=1)
        ctrl.try_admit()
        ctrl.enqueue(lambda: None, eligible=lambda: True)
        ctrl.release()  # the waiter takes the slot ...
        assert not ctrl.try_admit()  # ... not the newcomer

    def test_fifo_is_kept_within_eligible_waiters(self):
        ctrl = AdmissionController(limit=2)
        ctrl.try_admit()
        ctrl.try_admit()
        order = []
        ready = []
        ctrl.enqueue(
            lambda: order.append("gated"),
            eligible=lambda: bool(ready),
        )
        ctrl.enqueue(lambda: order.append("plain"))
        ctrl.release()
        # the gated head is skipped without losing its queue position
        assert order == ["plain"]
        ready.append(True)
        ctrl.release()
        assert order == ["plain", "gated"]

    def test_never_eligible_waiter_expires_without_leaking_a_slot(self):
        """The standby a read-your-writes waiter is pinned on never
        catches up: the waiter expires with its deadline error and
        releases nothing, because it never held a slot."""
        clock = FakeClock()
        ctrl = AdmissionController(limit=1, clock=clock)
        outcome = []
        ctrl.enqueue(
            lambda: outcome.append("granted"),
            timeout=5.0,
            on_timeout=lambda: outcome.append("deadline"),
            eligible=lambda: False,
        )
        clock.now = 6.0
        assert ctrl.expire_waiters() == 1
        assert outcome == ["deadline"]
        assert ctrl.active == 0 and ctrl.queue_depth == 0
        # the pool is intact: a newcomer admits immediately
        assert ctrl.try_admit()
        assert ctrl.active == 1


class TestTimeouts:
    def test_waiter_expires_past_deadline(self):
        clock = FakeClock()
        ctrl = AdmissionController(limit=1, clock=clock)
        ctrl.try_admit()
        timed_out = []
        ctrl.enqueue(
            lambda: timed_out.append("granted"),
            timeout=5.0, on_timeout=lambda: timed_out.append("timeout"),
        )
        clock.now = 6.0
        assert ctrl.expire_waiters() == 1
        assert timed_out == ["timeout"]
        ctrl.release()  # the slot goes unused, not to the dead waiter
        assert "granted" not in timed_out
        assert ctrl.timeouts == 1

    def test_waiter_within_deadline_survives(self):
        clock = FakeClock()
        ctrl = AdmissionController(limit=1, clock=clock)
        ctrl.try_admit()
        granted = []
        ctrl.enqueue(lambda: granted.append(True), timeout=5.0)
        clock.now = 4.0
        assert ctrl.expire_waiters() == 0
        ctrl.release()
        assert granted == [True]
