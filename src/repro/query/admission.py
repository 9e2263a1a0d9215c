"""Admission control for the session layer.

The paper's north star is "heavy traffic from millions of users";
unbounded session creation just moves the collapse into the database.
:class:`AdmissionController` enforces a global concurrency bound with a
FIFO wait queue and per-waiter deadlines.  All decisions are
synchronous -- this is a cooperative single-threaded simulation, so
"blocking" means parking a :class:`Waiter` that is granted when a slot
frees up (session close) or its eligibility predicate turns true.

Surfaced through ``repro.obs``: active sessions and queue depth gauges,
a wait-time histogram, admitted/rejected/timeout counters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs
from repro.common.errors import InvalidStateError


class PoolExhaustedError(InvalidStateError):
    """Immediate connect refused: the pool is at its limit."""


class AdmissionTimeout(InvalidStateError):
    """A queued connect waited past its deadline."""


@dataclass(slots=True)
class Waiter:
    """One parked connection request.

    ``eligible`` is an optional extra admissibility predicate beyond slot
    availability — e.g. read-your-writes: "a standby whose published
    QuerySCN covers my commitSCN exists".  A waiter whose predicate is
    currently false is skipped by the drain without losing its queue
    position or consuming a slot; callers re-drain (:meth:`pump`) when
    the external condition may have changed (a QuerySCN publication).
    """

    grant: Callable[[], None]
    enqueued_at: float
    deadline: Optional[float] = None
    on_timeout: Optional[Callable[[], None]] = None
    eligible: Optional[Callable[[], bool]] = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def ready(self) -> bool:
        return self.eligible is None or bool(self.eligible())


class AdmissionController:
    """Bounded concurrency with a FIFO wait queue."""

    def __init__(
        self,
        limit: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.limit = limit
        self._clock = clock or (lambda: 0.0)
        self._active = 0
        self._waiters: deque[Waiter] = deque()
        self.admitted = 0
        self.rejected = 0
        self.timeouts = 0
        obs.bind(self, {
            "admitted": "query.admission.admitted",
            "rejected": "query.admission.rejected",
            "timeouts": "query.admission.timeouts",
        })
        obs.bind(self, {
            "active": "query.admission.active",
            "queue_depth": "query.admission.queue_depth",
        }, "gauge")
        self._wait_seconds = obs.histogram("query.admission.wait_seconds")

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        return self._active

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    def _admissible(self) -> bool:
        return self.limit is None or self._active < self.limit

    # ------------------------------------------------------------------
    def try_admit(self) -> bool:
        """Admit immediately, or refuse (no queueing)."""
        # a fair pool never lets a newcomer jump parked admissible
        # waiters; waiters whose eligibility predicate is false are not
        # admissible now, so a newcomer may take the slot they can't use
        self.expire_waiters()
        if any(w.ready() for w in self._waiters) or not self._admissible():
            self.rejected += 1
            return False
        self._grant_slot(waited=0.0)
        return True

    def enqueue(
        self,
        grant: Callable[[], None],
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[], None]] = None,
        eligible: Optional[Callable[[], bool]] = None,
    ) -> Waiter:
        """Park a request; ``grant`` fires (synchronously) when a slot
        frees up.  May grant immediately if a slot is available now."""
        now = self._clock()
        waiter = Waiter(
            grant, enqueued_at=now,
            deadline=None if timeout is None else now + timeout,
            on_timeout=on_timeout, eligible=eligible,
        )
        self._waiters.append(waiter)
        self._drain()
        return waiter

    def release(self) -> None:
        """A session closed: free its slot and hand it to a waiter."""
        if self._active <= 0:
            raise InvalidStateError("release without matching admit")
        self._active -= 1
        self._drain()

    # ------------------------------------------------------------------
    def expire_waiters(self) -> int:
        """Drop waiters past their deadline (lazy: called on every
        admission event; tests/drivers may call it on a timer)."""
        now = self._clock()
        expired = 0
        kept: deque[Waiter] = deque()
        for waiter in self._waiters:
            if waiter.expired(now):
                expired += 1
                self.timeouts += 1
                self._wait_seconds.observe(now - waiter.enqueued_at)
                if waiter.on_timeout is not None:
                    waiter.on_timeout()
            else:
                kept.append(waiter)
        self._waiters = kept
        return expired

    def _grant_slot(self, waited: float) -> None:
        self._active += 1
        self.admitted += 1
        self._wait_seconds.observe(waited)

    def pump(self) -> None:
        """Re-run the drain because an *external* eligibility condition
        may have changed (e.g. a standby published a newer QuerySCN and a
        read-your-writes waiter now qualifies).  Safe to call any time.
        """
        self._drain()

    def _drain(self) -> None:
        """Grant parked waiters in FIFO order while slots allow.

        A waiter whose eligibility predicate is false is skipped without
        a grant — it keeps its position for the next drain/pump.
        """
        self.expire_waiters()
        now = self._clock()
        remaining: deque[Waiter] = deque()
        while self._waiters:
            waiter = self._waiters.popleft()
            if self._admissible() and waiter.ready():
                self._grant_slot(waited=now - waiter.enqueued_at)
                waiter.grant()
            else:
                remaining.append(waiter)
        self._waiters = remaining
