"""Event-driven cooperative scheduler.

Each :class:`Actor` owns a local timeline.  ``step`` returns the simulated
cost (seconds) of the work it just did, or ``None`` if it had nothing to do.
The scheduler keeps actors in a priority queue ordered by the time at which
they next become runnable and always dispatches the earliest one -- i.e. a
classic discrete-event simulation in which actors genuinely overlap in
simulated time even though Python executes them one at a time.

A step that finds no work and cannot name what would bring some retries
``idle_backoff`` later.  A step that can sets :attr:`Actor.park`: the actor
leaves the queue until its producer's :func:`wake` resumes it the instant
the work arrives (or, for a timed park, its time comes).

Two sources of controlled nondeterminism create the worker-rate skew that
the paper's QuerySCN "leapfrogging" depends on:

* per-actor ``speed`` factors (a slow worker's steps cost more), and
* optional jitter drawn from the scheduler's seeded RNG.

Both are reproducible from the seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, Optional

from repro.sim.clock import SimClock
from repro.sim.cpu import CpuNode
import random


class Actor:
    """Base class for every concurrent entity in the simulation."""

    #: Human-readable name (shows up in traces and metrics).
    name: str = "actor"
    #: Node whose CPU this actor consumes; ``None`` means free work.
    node: Optional[CpuNode] = None
    #: Cost multiplier: 2.0 means this actor is half as fast.
    speed: float = 1.0
    #: Retry delay of a step that found no work and did not park.
    idle_backoff: float = 0.001
    #: Set by a step that leaves the actor nothing to do until a producer
    #: wakes it (``True``) or until time ``t``, whichever comes first.
    #: Cleared after each step.
    park: bool | float | None = None
    #: The scheduler this actor is parked on (set and cleared by it).
    parked_on: Optional["Scheduler"] = None

    def step(self, sched: "Scheduler") -> Optional[float]:
        """Do one quantum of work; return its cost in seconds or ``None``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def wake(actors: Iterable[Actor]) -> None:
    """A producer's hand-over: resume those of its consumers that are
    parked (:meth:`Scheduler.wake`); the others are left alone."""
    for actor in actors:
        if actor.parked_on is not None:
            actor.parked_on.wake(actor)


class FunctionActor(Actor):
    """Wrap a plain callable as an actor (handy in tests)."""

    def __init__(
        self,
        fn: Callable[["Scheduler"], Optional[float]],
        name: str = "fn",
        node: Optional[CpuNode] = None,
        speed: float = 1.0,
    ) -> None:
        self._fn = fn
        self.name = name
        self.node = node
        self.speed = speed

    def step(self, sched: "Scheduler") -> Optional[float]:
        return self._fn(sched)


class ActorOwner:
    """Mixin for a component that schedules actors on its own behalf and
    must later remove exactly those -- by identity, not by name (a
    database leaving the deployment).  Owners initialise ``_actors``."""

    _actors: list[Actor]

    def attach_actor(self, sched: "Scheduler", actor: Actor) -> None:
        sched.add_actor(actor)
        self._actors.append(actor)

    def detach_actors(self, sched: "Scheduler") -> None:
        """Remove every actor that came through :meth:`attach_actor`."""
        for actor in self._actors:
            sched.remove_actor(actor)
        self._actors.clear()


class _Slot:
    """One registration: the actor, its order, its live entry's generation
    and, while parked, when its last step's cost has elapsed."""

    __slots__ = ("actor", "order", "gen", "ready")

    def __init__(self, actor: Actor, order: int) -> None:
        self.actor, self.order, self.gen = actor, order, 0
        self.ready = 0.0


class Scheduler:
    """Dispatches actors and timed events on a shared simulated clock."""

    def __init__(self, seed: int = 0, jitter: float = 0.0) -> None:
        self.clock = SimClock()
        self.rng = random.Random(seed)
        #: Fractional jitter applied to every step cost (0.1 => +/-10%).
        self.jitter = jitter
        self._events = itertools.count()
        self._registrations = itertools.count()
        # Heap entries: (time, kind, order, generation, payload).  At one
        # instant events (kind 0) run before actors (1), each in scheduling
        # or registration order, whenever they were pushed.  add/wake/
        # remove bump a slot's generation: older entries of the actor go
        # stale and are skipped lazily.
        self._heap: list[tuple[float, int, int, int, Any]] = []
        self._slots: dict[int, _Slot] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_actor(self, actor: Actor, start_at: float | None = None) -> None:
        """Register ``actor``; it becomes runnable at ``start_at`` (now).

        Re-adding a previously removed actor resumes it.
        """
        slot = self._slots.get(id(actor))
        if slot is None:
            slot = _Slot(actor, next(self._registrations))
            self._slots[id(actor)] = slot
        self._resume(slot, self.clock.now if start_at is None else start_at)

    def remove_actor(self, actor: Actor) -> None:
        """Deregister ``actor``; pending heap entries are lazily skipped."""
        slot = self._slots.pop(id(actor), None)
        if slot is not None:
            slot.gen += 1
            actor.parked_on = None

    def wake(self, actor: Actor) -> None:
        """Resume a parked ``actor`` now, or once its last step's cost has
        elapsed if that is later (a step never overlaps the one before)."""
        if actor.parked_on is self:
            slot = self._slots[id(actor)]
            self._resume(slot, max(self.clock.now, slot.ready))

    def _resume(self, slot: _Slot, when: float) -> None:
        slot.gen += 1
        slot.actor.parked_on = None
        heapq.heappush(self._heap, (when, 1, slot.order, slot.gen, slot))

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` once at simulated time ``when`` (e.g. message arrival)."""
        if when < self.clock.now:
            when = self.clock.now
        heapq.heappush(self._heap, (when, 0, next(self._events), 0, fn))

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        self.call_at(self.clock.now + delay, fn)

    @property
    def actors(self) -> list[Actor]:
        """Registered actors in registration order."""
        return [slot.actor for slot in self._slots.values()]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _next_time(self) -> Optional[float]:
        """Time of the earliest live entry, dropping stale ones at the
        head; None when nothing is scheduled."""
        heap = self._heap
        while heap and heap[0][1] and heap[0][3] != heap[0][4].gen:
            heapq.heappop(heap)  # a stale actor entry
        return heap[0][0] if heap else None

    def _dispatch_one(self) -> None:
        """Pop and run the head entry, made live by :meth:`_next_time`."""
        when, kind, __, gen, payload = heapq.heappop(self._heap)
        self.clock.advance_to(when)
        if not kind:
            payload()
            return
        slot: _Slot = payload
        actor = slot.actor
        actor.parked_on = None  # running (a timed park came due)
        cost = actor.step(self)
        if cost is None:
            ready, next_time = when, when + actor.idle_backoff
        else:
            cost *= actor.speed
            if self.jitter:
                cost *= 1.0 + self.rng.uniform(-self.jitter, self.jitter)
            if actor.node is not None:
                actor.node.charge(cost)
            ready = next_time = when + max(cost, 1e-9)
        park = getattr(actor, "park", None)  # a duck-typed actor polls
        if park:
            actor.park = None
        if gen != slot.gen:
            return  # re-added or removed during its step
        if park:
            slot.ready, actor.parked_on = ready, self
            if park is True:
                return
            next_time = max(next_time, park)
        heapq.heappush(self._heap, (next_time, 1, slot.order, gen, slot))

    def run_until(self, t: float) -> None:
        """Run the simulation until the clock reaches ``t``."""
        while (when := self._next_time()) is not None and when <= t:
            self._dispatch_one()
        if self.clock.now < t:
            self.clock.advance_to(t)

    def run_for(self, duration: float) -> None:
        self.run_until(self.clock.now + duration)

    def run_steps(self, n: int) -> None:
        """Dispatch exactly ``n`` heap entries (for fine-grained tests)."""
        for __ in range(n):
            if self._next_time() is None:
                break
            self._dispatch_one()

    def run_until_condition(
        self, predicate: Callable[[], bool], max_time: float = 1e6
    ) -> bool:
        """Run until ``predicate()`` is true; False if ``max_time`` expired."""
        deadline = self.clock.now + max_time
        while not predicate():
            when = self._next_time()
            if when is None or when > deadline:
                return False
            self._dispatch_one()
        return True

    @property
    def now(self) -> float:
        return self.clock.now
