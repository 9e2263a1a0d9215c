"""Tests for parking and waking actors (wake on work).

A parked actor is out of the heap; ``wake`` puts it back at the instant the
work arrives -- or once its last step's cost has elapsed, if that is later,
so one actor's steps never overlap.  A wake leaves an actor that is not
parked (busy, polling or unregistered) alone.
"""

import functools
from types import SimpleNamespace

from repro.imcs.scan import ScanMorsel, _partial
from repro.query.service import MORSEL_DISPATCH_COST, QueryService
from repro.sim import Scheduler
from repro.sim.scheduler import wake

from tests.helpers import FunctionActor, run_steps


class Queue:
    """A work queue and the consumer that drains it (one item per step)."""

    def __init__(self, backoff=0.1, cost=0.01):
        self.items = []
        self.seen = []
        self.cost = cost
        self.consumer = FunctionActor(self._drain, name="consumer")
        self.consumer.idle_backoff = backoff

    def _drain(self, sched):
        cost = None
        if self.items:
            self.seen.append((sched.now, self.items.pop(0)))
            cost = self.cost
        if not self.items:
            self.consumer.park = True
        return cost

    def put(self, item):
        self.items.append(item)
        wake((self.consumer,))


def test_wake_resumes_a_parked_actor_at_the_waking_instant():
    sched = Scheduler()
    queue = Queue(backoff=0.1)
    sched.add_actor(queue.consumer)
    sched.call_at(0.3, lambda: queue.put("a"))
    sched.run_until(2.0)
    assert queue.seen == [(0.3, "a")]  # not on a 0.1 poll grid


def test_parked_actor_leaves_the_heap_until_woken():
    sched = Scheduler()
    queue = Queue(backoff=0.1)
    sched.add_actor(queue.consumer)
    run_steps(sched, 1)  # idle: parks
    assert queue.consumer.parked_on is sched
    run_steps(sched, 5)  # nothing to dispatch
    assert sched.now == 0.0
    sched.run_until(50.0)
    assert queue.seen == [] and sched.now == 50.0


def test_busy_step_that_empties_its_queue_parks_at_its_cost():
    """The busy step that emptied the queue parks; a put before its cost
    has elapsed runs at ``when + cost``, one after it at the put."""
    sched = Scheduler()
    queue = Queue(backoff=0.1, cost=0.25)
    queue.items.append("a")
    sched.add_actor(queue.consumer)
    sched.call_at(0.125, lambda: queue.put("b"))
    sched.call_at(1.0, lambda: queue.put("c"))
    sched.run_until(2.0)
    assert queue.seen == [(0.0, "a"), (0.25, "b"), (1.0, "c")]


def test_wake_outside_a_dispatch_lands_after_the_horizon_run():
    """Woken after ``run_until(1.0)``, the consumer runs at 1.0 in the next
    run."""
    sched = Scheduler()
    queue = Queue(backoff=0.25)
    sched.add_actor(queue.consumer)
    sched.run_until(1.0)
    queue.put("a")
    sched.run_until(2.0)
    assert queue.seen == [(1.0, "a")]


def test_wake_leaves_a_busy_actor_alone():
    """A wake supersedes only a parked actor's entry: an actor in the
    middle of a step's cost keeps its next step at ``when + cost``."""
    sched = Scheduler()
    calls = []
    actor = FunctionActor(lambda s: (calls.append(s.now), 1.0)[1], name="w")
    sched.add_actor(actor)
    sched.call_at(0.5, lambda: wake((actor,)))
    sched.run_until(2.5)
    assert calls == [0.0, 1.0, 2.0]


def test_repeated_wakes_dispatch_once():
    sched = Scheduler()
    queue = Queue(backoff=0.5)
    sched.add_actor(queue.consumer)
    run_steps(sched, 1)
    queue.items.append("a")
    for __ in range(3):
        wake((queue.consumer,))
    sched.run_until(2.0)
    assert queue.seen == [(0.0, "a")]
    assert queue.consumer.parked_on is sched


def test_wake_ignores_an_unregistered_actor():
    sched = Scheduler()
    queue = Queue()
    sched.wake(queue.consumer)  # never registered
    sched.add_actor(queue.consumer)
    sched.remove_actor(queue.consumer)
    queue.put("a")
    sched.run_until(1.0)  # a removed actor never dispatches
    assert queue.seen == []


def test_tie_with_the_dispatching_entry_follows_registration_order():
    """Two consumers woken at one instant run after the step that woke
    them, in registration order, not in the order they were woken."""
    sched = Scheduler()
    first, second = Queue(), Queue()
    first.seen = second.seen  # one trace for both

    def produce(s):
        if s.now == 0.5:
            second.put("b")
            first.put("a")
        return None

    producer = FunctionActor(produce, name="producer")
    producer.idle_backoff = 0.25
    for actor in (first.consumer, producer, second.consumer):
        sched.add_actor(actor)
    sched.run_until(1.0)
    assert second.seen == [(0.5, "a"), (0.5, "b")]


def test_events_run_before_actors_at_one_instant():
    sched = Scheduler()
    order = []
    actor = FunctionActor(lambda s: order.append("actor"), name="a")
    actor.idle_backoff = 1.0
    sched.add_actor(actor)
    run_steps(sched, 1)  # actor at 0.0; its next poll is at 1.0
    sched.call_at(1.0, lambda: order.append("event"))
    sched.run_until(1.0)
    assert order == ["actor", "event", "actor"]


def timed_sleeper(due, backoff=1.0, cost=None):
    """An actor that parks until ``due(now)`` after every step."""
    steps = []

    def work(s):
        steps.append(s.now)
        actor.park = due(s.now)
        return cost

    actor = FunctionActor(work, name="timer")
    actor.idle_backoff = backoff
    return actor, steps


def test_timed_park_resumes_at_its_time():
    sched = Scheduler()
    actor, steps = timed_sleeper(lambda now: 0.375, backoff=0.125)
    sched.add_actor(actor)
    sched.run_until(0.7)
    # parked after 0.0 until 0.375; once the time has passed, each step
    # retries ``idle_backoff`` later
    assert steps == [0.0, 0.375, 0.5, 0.625]


def test_timed_park_waits_for_its_step_s_cost():
    sched = Scheduler()
    actor, steps = timed_sleeper(lambda now: now + 0.25, cost=0.5)
    sched.add_actor(actor)
    sched.run_until(1.2)
    assert steps == [0.0, 0.5, 1.0]


def test_timed_park_is_superseded_by_an_earlier_wake():
    sched = Scheduler()
    actor, steps = timed_sleeper(lambda now: 5.0)
    sched.add_actor(actor)
    run_steps(sched, 1)
    sched.call_at(2.5, lambda: wake((actor,)))
    sched.run_until(4.5)
    assert steps == [0.0, 2.5]
    sched.run_until(5.5)
    assert steps == [0.0, 2.5, 5.0]  # it parked again until its time


def test_a_removed_parked_actor_ignores_wakes_and_resumes_when_readded():
    sched = Scheduler()
    queue = Queue(backoff=0.5)
    sched.add_actor(queue.consumer)
    run_steps(sched, 1)
    sched.remove_actor(queue.consumer)
    assert queue.consumer.parked_on is None
    queue.put("a")
    sched.run_until(3.0)
    assert queue.seen == []
    sched.add_actor(queue.consumer)
    sched.run_until(4.0)
    assert queue.seen == [(3.0, "a")]


def test_readd_actor_does_not_double_dispatch():
    sched = Scheduler()
    calls = []
    actor = FunctionActor(lambda s: calls.append(s.now), name="sleepy")
    actor.idle_backoff = 0.5
    sched.add_actor(actor)
    run_steps(sched, 1)
    sched.remove_actor(actor)
    sched.add_actor(actor)  # resume: exactly one live entry
    sched.run_until(1.2)
    assert calls == [0.0, 0.0, 0.5, 1.0]


def test_run_until_stops_at_its_horizon_behind_a_stale_entry():
    """A wake leaves the superseded timed entry in the heap; a stale head
    must not let ``run_until`` run the next live entry past the horizon."""
    sched = Scheduler()
    actor, steps = timed_sleeper(lambda now: now + 10.0)
    sched.add_actor(actor)
    run_steps(sched, 1)  # parked until 10.0
    sched.call_at(1.0, lambda: wake((actor,)))  # the 10.0 entry goes stale
    sched.run_until(2.0)  # runs at 1.0; parked until 11.0
    sched.run_until(10.5)  # the stale 10.0 entry heads the heap
    assert steps == [0.0, 1.0]
    assert sched.now == 10.5


def test_run_until_condition_deadline_ignores_stale_entries():
    sched = Scheduler()
    actor, steps = timed_sleeper(lambda now: now + 10.0)
    sched.add_actor(actor)
    run_steps(sched, 1)
    sched.call_at(1.0, lambda: wake((actor,)))
    sched.run_until(2.0)
    assert not sched.run_until_condition(lambda: False, max_time=8.5)
    assert steps == [0.0, 1.0]


def test_actors_keep_registration_order():
    sched = Scheduler()
    a, b, c = (FunctionActor(lambda s: None, name=n) for n in "abc")
    for actor in (a, b, c):
        sched.add_actor(actor)
    sched.add_actor(a)  # re-adding a registered actor keeps its place
    sched.remove_actor(b)
    sched.add_actor(b)  # a removed one re-registers last
    assert sched.actors == [a, c, b]


def test_a_query_worker_busy_at_submit_finishes_its_morsel_first():
    """A submit wakes the service's parked workers at once; a worker still
    in a morsel's cost takes the next one only when that cost has
    elapsed."""
    sched = Scheduler()
    started = []

    def step(result):
        started.append(sched.now)
        result.stats.cost_seconds += 1.0

    def plan_morsels(*args):  # every scan is one 1 s morsel
        return [ScanMorsel("rowstore", "m", functools.partial(_partial, step))]

    member = SimpleNamespace(
        name="m", node=None, published_scn=0,
        catalog=SimpleNamespace(table=lambda name: None),
        scan_engine=SimpleNamespace(plan_morsels=plan_morsels),
    )
    service = QueryService(member, sched, 1)
    sched.call_at(0.25, lambda: service.submit("T"))
    sched.call_at(0.75, lambda: service.submit("T"))  # worker busy
    sched.call_at(3.0, lambda: service.submit("T"))  # worker parked
    sched.run_until(5.0)
    assert started == [0.25, 0.25 + 1.0 + MORSEL_DISPATCH_COST, 3.0]
