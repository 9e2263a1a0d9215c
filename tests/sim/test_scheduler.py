"""Tests for the discrete-event scheduler."""

from repro.sim import CpuNode, Scheduler

from tests.helpers import FunctionActor, run_steps


def test_clock_advances_with_step_costs():
    sched = Scheduler()
    ticks = []

    def work(s):
        ticks.append(s.now)
        return 0.1

    sched.add_actor(FunctionActor(work, name="w"))
    run_steps(sched, 3)
    assert ticks == [0.0, 0.1, 0.2]


def test_idle_actor_backs_off():
    sched = Scheduler()
    calls = []

    actor = FunctionActor(lambda s: calls.append(s.now), name="idle")
    actor.idle_backoff = 0.5
    sched.add_actor(actor)
    run_steps(sched, 3)
    assert calls == [0.0, 0.5, 1.0]


def test_two_actors_interleave_in_simulated_parallel():
    """A fast and a slow actor overlap: the fast one runs many steps per
    slow step, like two processes on different cores."""
    sched = Scheduler()
    trace = []

    fast = FunctionActor(lambda s: (trace.append("f"), 0.1)[1], name="fast")
    slow = FunctionActor(lambda s: (trace.append("s"), 0.35)[1], name="slow")
    sched.add_actor(fast)
    sched.add_actor(slow)
    sched.run_until(1.0)
    assert trace.count("f") > 2 * trace.count("s")


def test_cpu_charging():
    sched = Scheduler()
    node = CpuNode("host", n_cpus=2)
    actor = FunctionActor(lambda s: 0.2, name="w", node=node)
    sched.add_actor(actor)
    run_steps(sched, 5)
    assert abs(node.busy_seconds - 1.0) < 1e-9
    # 1 busy second over a 2-second window on 2 cores = 25%.
    assert abs(node.utilisation(2.0) - 25.0) < 1e-9


def test_call_at_runs_event_at_time():
    sched = Scheduler()
    fired = []
    sched.call_at(0.7, lambda: fired.append(sched.now))
    sched.run_until(1.0)
    assert fired == [0.7]


def test_call_after_relative_delay():
    sched = Scheduler()
    fired = []
    sched.add_actor(FunctionActor(lambda s: 0.1, name="w"))
    sched.run_until(0.5)
    sched.call_after(0.25, lambda: fired.append(sched.now))
    sched.run_until(1.0)
    assert len(fired) == 1
    assert abs(fired[0] - 0.75) < 1e-9


def test_remove_actor_stops_future_steps():
    sched = Scheduler()
    calls = []
    actor = FunctionActor(lambda s: (calls.append(1), 0.1)[1], name="w")
    sched.add_actor(actor)
    run_steps(sched, 2)
    sched.remove_actor(actor)
    sched.run_until(5.0)
    assert len(calls) == 2


def test_removed_actor_can_be_readded():
    """Pause/resume: re-adding a removed actor resumes its steps."""
    sched = Scheduler()
    calls = []
    actor = FunctionActor(lambda s: (calls.append(1), 0.1)[1], name="w")
    sched.add_actor(actor)
    run_steps(sched, 2)
    sched.remove_actor(actor)
    sched.run_until(1.0)
    assert len(calls) == 2
    sched.add_actor(actor)
    sched.run_until(2.0)
    assert len(calls) > 2


def test_determinism_same_seed_same_trace():
    def run(seed):
        sched = Scheduler(seed=seed, jitter=0.2)
        trace = []
        a = FunctionActor(lambda s: (trace.append(("a", round(s.now, 6))), 0.01)[1], "a")
        b = FunctionActor(lambda s: (trace.append(("b", round(s.now, 6))), 0.013)[1], "b")
        sched.add_actor(a)
        sched.add_actor(b)
        sched.run_until(0.5)
        return trace

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_run_until_condition():
    sched = Scheduler()
    counter = {"n": 0}

    def work(s):
        counter["n"] += 1
        return 0.01

    sched.add_actor(FunctionActor(work, name="w"))
    assert sched.run_until_condition(lambda: counter["n"] >= 10)
    assert counter["n"] == 10


def test_run_until_condition_times_out():
    sched = Scheduler()
    sched.add_actor(FunctionActor(lambda s: 0.01, name="w"))
    assert not sched.run_until_condition(lambda: False, max_time=0.1)
