"""The polling dispatch, as the oracle for wake on work.

``repro.sim.scheduler.Scheduler`` leaves a parked actor out of the heap
until a producer wakes it.  :class:`PollingScheduler` is the dispatch it
displaced: every actor polls on its ``idle_backoff`` grid and ``park`` is
ignored, so every empty step runs.  Both share the heap key, so any busy
step, event or jitter draw that differs between them is a wake landing on
the wrong tick (``tests/property/test_wake_matches_poll.py``).
"""

from __future__ import annotations

import heapq

from repro.sim.scheduler import Scheduler


class PollingScheduler(Scheduler):
    """A scheduler whose actors never park."""

    #: Steps that returned no cost, i.e. the polls wake on work saves.
    idle_steps = 0

    def _dispatch_one(self) -> None:
        when, kind, order, gen, payload = heapq.heappop(self._heap)
        self.clock.advance_to(when)
        self._cursor = (when, kind, order)
        if not kind:
            payload()
            return
        slot = payload
        actor = slot.actor
        cost = actor.step(self)
        if getattr(actor, "park", None):
            actor.park = None
        if cost is None:
            self.idle_steps += 1
            next_time = when + actor.idle_backoff
        else:
            cost *= actor.speed
            if self.jitter:
                cost *= 1.0 + self.rng.uniform(-self.jitter, self.jitter)
            if actor.node is not None:
                actor.node.charge(cost)
            next_time = when + max(cost, 1e-9)
        # a stale re-queue (the actor was kicked or re-added during its
        # step) is skipped when it reaches the head
        heapq.heappush(self._heap, (next_time, 1, order, gen, slot))
