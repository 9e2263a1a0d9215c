"""The cooperative-flush *wait* time is split out of apply accounting.

A worker whose flush helper reports "worklink present but drain blocked"
(the -1 sentinel, e.g. a chaos stall) is waiting, not working: the
blocked episode must land in the ``adg.apply.coop_flush_wait`` histogram
and must not be charged as flush work.  Episodes are measured end-to-end -- one observation per blocked
span, not one per polled step.
"""

from __future__ import annotations

from repro import obs
from repro.adg import ApplyDistributor, RecoveryWorker
from repro.obs.registry import MetricsRegistry
from repro.sim import Scheduler
from tests.helpers import NullApplier


class TogglingFlushHelper:
    """Blocked for ``blocked_calls`` polls, then drains normally."""

    def __init__(self, blocked_calls):
        self.blocked_calls = blocked_calls
        self.calls = 0

    def __call__(self, worker_id, batch):
        self.calls += 1
        if self.calls <= self.blocked_calls:
            return -1
        return 0  # no worklink: nothing to drain


def run_worker(helper, duration=0.05):
    registry = MetricsRegistry()
    with obs.collecting(registry):
        applier = NullApplier()
        worker = RecoveryWorker(
            0, ApplyDistributor(1, applier), applier, flush_helper=helper
        )
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(duration)
    hist = registry.get("adg.apply.coop_flush_wait", worker=0)
    return worker, hist


class TestCoopFlushWait:
    def test_blocked_episode_lands_in_histogram(self):
        helper = TogglingFlushHelper(blocked_calls=5)
        worker, hist = run_worker(helper)
        assert helper.calls > 5  # unblocked and kept stepping
        assert len(hist) == 1  # one episode, not one entry per poll
        assert hist.stats()["max"] > 0.0

    def test_unblocked_flush_records_nothing(self):
        helper = TogglingFlushHelper(blocked_calls=0)
        __, hist = run_worker(helper)
        assert len(hist) == 0

    def test_still_blocked_episode_stays_open(self):
        """An episode is observed only once it *ends*; a worker blocked at
        shutdown has nothing in the histogram but marks the open start."""
        helper = TogglingFlushHelper(blocked_calls=10**9)
        worker, hist = run_worker(helper)
        assert len(hist) == 0
        assert worker._flush_blocked_since is not None
