"""Tests for parking and waking actors (wake on work).

A parked actor is out of the heap; ``wake`` must put it back on the very
tick its idle polls would have reached first after the work arrived.  Each
case also runs under ``tests/polling_scheduler.py`` where it matters, so
"the tick the poll would have found the work" is read off the oracle
rather than restated.
"""

from repro.sim import FunctionActor, Scheduler
from repro.sim.scheduler import wake

from tests.polling_scheduler import PollingScheduler


class Queue:
    """A work queue and the consumer that drains it (one item per step)."""

    def __init__(self, backoff=0.1):
        self.items = []
        self.seen = []
        self.consumer = FunctionActor(self._drain, name="consumer")
        self.consumer.idle_backoff = backoff

    def _drain(self, sched):
        cost = None
        if self.items:
            self.seen.append((sched.now, self.items.pop(0)))
            cost = 0.01
        if not self.items:
            self.consumer.park = True
        return cost

    def put(self, item):
        self.items.append(item)
        wake((self.consumer,))


def run_both(build, until):
    """``build(sched)`` wires a run; returns what it returned under the
    waking and the polling scheduler after ``run_until(until)``."""
    out = []
    for sched in (Scheduler(), PollingScheduler()):
        result = build(sched)
        sched.run_until(until)
        out.append(result)
    return out


def test_wake_lands_on_the_tick_walked_by_the_polls_float_additions():
    def build(sched):
        queue = Queue(backoff=0.1)  # 0.1 is not exact: the walk must add
        sched.add_actor(queue.consumer)
        sched.call_at(0.3, lambda: queue.put("a"))
        return queue

    woken, polled = run_both(build, 2.0)
    tick = 0.1 + 0.1 + 0.1
    assert tick > 0.3  # three additions of 0.1 overshoot 0.3
    assert woken.seen == polled.seen == [(tick, "a")]


def test_parked_actor_leaves_the_heap_until_woken():
    sched = Scheduler()
    queue = Queue(backoff=0.1)
    sched.add_actor(queue.consumer)
    sched.run_steps(1)  # idle: parks
    assert queue.consumer.parked_on is sched
    sched.run_steps(5)  # nothing to dispatch
    assert sched.now == 0.0
    sched.run_until(50.0)
    assert queue.seen == [] and sched.now == 50.0


def test_busy_step_that_empties_its_queue_parks_at_its_cost():
    """After a busy step the next poll is at ``when + cost``; a wake walks
    the idle grid from there."""

    def build(sched):
        queue = Queue(backoff=0.1)
        queue.items.append("a")
        sched.add_actor(queue.consumer)
        sched.call_at(0.35, lambda: queue.put("b"))
        return queue

    woken, polled = run_both(build, 1.0)
    assert woken.seen == polled.seen
    assert woken.seen[1][0] == 0.01 + 0.1 + 0.1 + 0.1 + 0.1


def test_wake_outside_a_dispatch_lands_after_the_horizon_run():
    sched = Scheduler()
    queue = Queue(backoff=0.25)
    sched.add_actor(queue.consumer)
    sched.run_until(1.0)  # its poll at exactly 1.0 already ran, idle
    queue.put("a")
    sched.run_until(2.0)
    assert queue.seen == [(1.25, "a")]


def test_wake_outside_a_dispatch_keeps_a_poll_not_yet_run_at_now():
    """After ``run_steps`` the consumer's poll at the current instant may
    still be due behind the entry just run: a wake lands there."""
    seen = []
    for sched in (Scheduler(), PollingScheduler()):
        other = FunctionActor(lambda s: None, name="other")
        other.idle_backoff = 0.5
        queue = Queue(backoff=0.5)
        sched.add_actor(other)
        sched.add_actor(queue.consumer)
        sched.run_steps(3)  # 0.0: other, consumer (idle); 0.5: other
        queue.put("a")
        sched.run_until(2.0)
        seen.append(queue.seen)
    assert seen[0] == seen[1] == [(0.5, "a")]


def tie_run(producer_first):
    """Producer and consumer share the 0.25 grid; the producer hands over
    work on its step at 0.5.  The consumer's poll at 0.5 sees it only if
    the consumer sorts after the producer (registered later)."""

    def build(sched):
        queue = Queue(backoff=0.25)
        fired = []

        def produce(s):
            if s.now == 0.5 and not fired:
                fired.append(s.now)
                queue.put("a")
            return None

        producer = FunctionActor(produce, name="producer")
        producer.idle_backoff = 0.25
        actors = [producer, queue.consumer]
        for actor in actors if producer_first else reversed(actors):
            sched.add_actor(actor)
        return queue

    return run_both(build, 2.0)


def test_tie_with_the_dispatching_entry_follows_registration_order():
    woken, polled = tie_run(producer_first=True)
    assert woken.seen == polled.seen == [(0.5, "a")]
    woken, polled = tie_run(producer_first=False)
    assert woken.seen == polled.seen == [(0.75, "a")]


def test_events_run_before_actors_at_one_instant():
    sched = Scheduler()
    order = []
    actor = FunctionActor(lambda s: order.append("actor"), name="a")
    actor.idle_backoff = 1.0
    sched.add_actor(actor)
    sched.run_steps(1)  # actor at 0.0; its next poll is at 1.0
    sched.call_at(1.0, lambda: order.append("event"))
    sched.run_until(1.0)
    assert order == ["actor", "event", "actor"]


def timed_sleeper(due, backoff):
    steps = []

    def work(s):
        steps.append(s.now)
        actor.park = due
        return None

    actor = FunctionActor(work, name="timer")
    actor.idle_backoff = backoff
    return actor, steps


def test_timed_park_wakes_on_the_first_tick_at_or_after_its_time():
    sched = Scheduler()
    actor, steps = timed_sleeper(due=0.35, backoff=0.1)
    sched.add_actor(actor)
    sched.run_until(0.6)
    # parked after 0.0; the ticks 0.1..0.3 are skipped.  From 0.4 on the
    # time has passed, so each step parks until its very next tick
    assert steps == [0.0, 0.1 + 0.1 + 0.1 + 0.1, 0.4 + 0.1, 0.5 + 0.1]


def test_timed_park_is_superseded_by_an_earlier_wake():
    sched = Scheduler()
    actor, steps = timed_sleeper(due=5.0, backoff=1.0)
    sched.add_actor(actor)
    sched.run_steps(1)
    sched.call_at(2.5, lambda: wake((actor,)))
    sched.run_until(4.5)
    assert steps == [0.0, 3.0]
    sched.run_until(5.5)
    assert steps == [0.0, 3.0, 5.0]  # it parked again until its time


def test_kicking_a_parked_actor_resumes_it_now():
    sched = Scheduler()
    queue = Queue(backoff=10.0)
    sched.add_actor(queue.consumer)
    sched.run_steps(1)
    sched.clock.advance_to(1.0)
    queue.items.append("a")  # no wake: the kick is what resumes it
    assert sched.kick(queue.consumer)
    assert queue.consumer.parked_on is None
    sched.run_until(2.0)
    assert queue.seen == [(1.0, "a")]


def test_a_removed_parked_actor_ignores_wakes_and_resumes_when_readded():
    sched = Scheduler()
    queue = Queue(backoff=0.5)
    sched.add_actor(queue.consumer)
    sched.run_steps(1)
    sched.remove_actor(queue.consumer)
    assert queue.consumer.parked_on is None
    queue.put("a")
    sched.run_until(3.0)
    assert queue.seen == []
    sched.add_actor(queue.consumer)
    sched.run_until(4.0)
    assert queue.seen == [(3.0, "a")]


def test_run_until_stops_at_its_horizon_behind_a_stale_entry():
    """A kick leaves the superseded entry in the heap; a stale head must
    not let ``run_until`` run the next live entry past the horizon."""
    sched = Scheduler()
    calls = []
    actor = FunctionActor(lambda s: calls.append(s.now), name="sleepy")
    actor.idle_backoff = 10
    sched.add_actor(actor)
    sched.run_steps(1)  # next poll at 10.0
    sched.clock.advance_to(1)
    sched.kick(actor)  # the 10.0 entry goes stale
    sched.run_until(2)  # runs the kick at 1.0; next poll at 11.0
    sched.run_until(10.5)  # the stale 10.0 entry heads the heap
    assert calls == [0.0, 1.0]
    assert sched.now == 10.5


def test_run_until_condition_deadline_ignores_stale_entries():
    sched = Scheduler()
    calls = []
    actor = FunctionActor(lambda s: calls.append(s.now), name="sleepy")
    actor.idle_backoff = 10
    sched.add_actor(actor)
    sched.run_steps(1)
    sched.clock.advance_to(1)
    sched.kick(actor)
    sched.run_until(2)
    assert not sched.run_until_condition(lambda: False, max_time=8.5)
    assert calls == [0.0, 1.0]


def test_actors_keep_registration_order():
    sched = Scheduler()
    a, b, c = (FunctionActor(lambda s: None, name=n) for n in "abc")
    for actor in (a, b, c):
        sched.add_actor(actor)
    sched.add_actor(a)  # re-adding a registered actor keeps its place
    sched.remove_actor(b)
    sched.add_actor(b)  # a removed one re-registers last
    assert sched.actors == [a, c, b]
