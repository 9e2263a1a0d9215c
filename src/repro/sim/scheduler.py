"""Event-driven cooperative scheduler.

Each :class:`Actor` owns a local timeline.  ``step`` returns the simulated
cost (seconds) of the work it just did, or ``None`` if it had nothing to do.
The scheduler keeps actors in a priority queue ordered by the time at which
they next become runnable and always dispatches the earliest one -- i.e. a
classic discrete-event simulation in which actors genuinely overlap in
simulated time even though Python executes them one at a time.

Two sources of controlled nondeterminism create the worker-rate skew that
the paper's QuerySCN "leapfrogging" depends on:

* per-actor ``speed`` factors (a slow worker's steps cost more), and
* optional jitter drawn from the scheduler's seeded RNG.

Both are reproducible from the seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

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
    #: How long an actor sleeps after a step that found no work.
    idle_backoff: float = 0.001

    def step(self, sched: "Scheduler") -> Optional[float]:
        """Do one quantum of work; return its cost in seconds or ``None``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


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


class Scheduler:
    """Dispatches actors and timed events on a shared simulated clock."""

    def __init__(self, seed: int = 0, jitter: float = 0.0) -> None:
        self.clock = SimClock()
        self.rng = random.Random(seed)
        #: Fractional jitter applied to every step cost (0.1 => +/-10%).
        self.jitter = jitter
        self._counter = itertools.count()
        # Heap entries: (ready_time, tie_break, kind, payload, generation)
        # kind 0 = actor, kind 1 = one-shot event callback.  An actor's
        # entry is live only while its generation matches ``_gen`` --
        # ``kick``/``add_actor`` bump the generation, superseding any
        # entry still sitting in the heap (lazily skipped on pop).
        self._heap: list[tuple[float, int, int, object, int]] = []
        self._actors: list[Actor] = []
        self._removed: set[int] = set()
        self._gen: dict[int, int] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_actor(self, actor: Actor, start_at: float | None = None) -> None:
        """Register ``actor``; it becomes runnable at ``start_at`` (now).

        Re-adding a previously removed actor resumes it.
        """
        self._removed.discard(id(actor))
        if actor not in self._actors:
            self._actors.append(actor)
        gen = self._gen.get(id(actor), 0) + 1
        self._gen[id(actor)] = gen
        when = self.clock.now if start_at is None else start_at
        heapq.heappush(self._heap, (when, next(self._counter), 0, actor, gen))

    def remove_actor(self, actor: Actor) -> None:
        """Deregister ``actor``; pending heap entries are lazily skipped."""
        if actor in self._actors:
            self._actors.remove(actor)
        self._removed.add(id(actor))

    def kick(self, actor: Actor, delay: float = 0.0) -> bool:
        """Make ``actor`` runnable at now (+``delay``), superseding its
        pending wakeup (typically an idle-backoff sleep).

        Used by work queues to wake sleeping consumers the moment work
        arrives -- e.g. query workers when a scan's morsels are enqueued.
        Returns False (and does nothing) if the actor is not registered.
        """
        key = id(actor)
        if key in self._removed or actor not in self._actors:
            return False
        gen = self._gen.get(key, 0) + 1
        self._gen[key] = gen
        heapq.heappush(
            self._heap,
            (self.clock.now + delay, next(self._counter), 0, actor, gen),
        )
        return True

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` once at simulated time ``when`` (e.g. message arrival)."""
        if when < self.clock.now:
            when = self.clock.now
        heapq.heappush(self._heap, (when, next(self._counter), 1, fn, 0))

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        self.call_at(self.clock.now + delay, fn)

    @property
    def actors(self) -> list[Actor]:
        return list(self._actors)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _dispatch_one(self) -> bool:
        """Pop and run the earliest heap entry.  Returns False if empty."""
        while self._heap:
            when, __, kind, payload, gen = heapq.heappop(self._heap)
            if kind == 0:
                if id(payload) in self._removed:
                    continue
                if gen != self._gen.get(id(payload)):
                    continue  # superseded by a kick / re-add
            self.clock.advance_to(when)
            if kind == 1:
                payload()  # type: ignore[operator]
                return True
            actor: Actor = payload  # type: ignore[assignment]
            cost = actor.step(self)
            if cost is None:
                next_time = when + actor.idle_backoff
            else:
                cost *= actor.speed
                if self.jitter:
                    cost *= 1.0 + self.rng.uniform(-self.jitter, self.jitter)
                if actor.node is not None:
                    actor.node.charge(cost)
                next_time = when + max(cost, 1e-9)
            # re-queue with the generation we popped: if the actor kicked
            # itself (or was re-added) during the step, this entry is
            # stale and the newer one wins.
            heapq.heappush(
                self._heap, (next_time, next(self._counter), 0, actor, gen)
            )
            return True
        return False

    def run_until(self, t: float) -> None:
        """Run the simulation until the clock reaches ``t``."""
        while self._heap and self._heap[0][0] <= t:
            self._dispatch_one()
        if self.clock.now < t:
            self.clock.advance_to(t)

    def run_for(self, duration: float) -> None:
        self.run_until(self.clock.now + duration)

    def run_steps(self, n: int) -> None:
        """Dispatch exactly ``n`` heap entries (for fine-grained tests)."""
        for __ in range(n):
            if not self._dispatch_one():
                break

    def run_until_condition(
        self, predicate: Callable[[], bool], max_time: float = 1e6
    ) -> bool:
        """Run until ``predicate()`` is true; False if ``max_time`` expired."""
        deadline = self.clock.now + max_time
        while not predicate():
            if not self._heap or self._heap[0][0] > deadline:
                return False
            self._dispatch_one()
        return True

    @property
    def now(self) -> float:
        return self.clock.now
