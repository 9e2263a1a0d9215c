"""Tests for fault primitives, the repeat wrapper and fault plans."""

import pytest

from repro.chaos import sites
from repro.chaos.sites import Action, SiteRegistry, recording
from repro.sim import Scheduler

from tests.chaos import faults as F
from tests.chaos.harness import ChaosContext, FaultPlan


class Probe:
    """A component with one declared site, counting what happened."""

    def __init__(self, name="probe.site"):
        self.site = sites.declare(name, owner=self)
        self.log = []

    def fire(self, event="e", **context):
        if self.site.injectors is not None:
            decision = self.site.consult(event, **context)
        else:
            decision = sites.PROCEED
        self.log.append(decision.action)
        return decision


@pytest.fixture
def ctx():
    registry = SiteRegistry()
    sched = Scheduler(seed=1)
    context = ChaosContext(deployment=None, registry=registry, sched=sched)
    return context


def probed(ctx, name="probe.site"):
    with recording(ctx.registry):
        return Probe(name)


class TestSiteFaults:
    def test_drop_consumes_count_then_disarms(self, ctx):
        probe = probed(ctx)
        F.Drop("probe.site", count=2).trigger(ctx)
        assert [probe.fire().action for __ in range(4)] == [
            Action.DROP, Action.DROP, Action.PROCEED, Action.PROCEED,
        ]
        assert probe.site.injectors is None  # auto-uninstalled at zero

    def test_where_filter_does_not_consume_count(self, ctx):
        probe = probed(ctx)
        fault = F.Drop(
            "probe.site", count=1,
            where=lambda site, event, c: c.get("n") == 2,
        )
        fault.trigger(ctx)
        assert probe.fire(n=1).action is Action.PROCEED
        assert fault.remaining == 1  # filtered events are free
        assert probe.fire(n=2).action is Action.DROP
        assert fault.remaining == 0

    def test_delay_carries_latency(self, ctx):
        probe = probed(ctx)
        F.Delay("probe.site", by=0.25, count=1).trigger(ctx)
        decision = probe.fire()
        assert decision.action is Action.DELAY
        assert decision.delay == 0.25

    def test_reorder_alternates_overtake_delays(self, ctx):
        probe = probed(ctx)
        F.Reorder("probe.site", count=4, overtake=0.03).trigger(ctx)
        delays = [probe.fire().delay for __ in range(4)]
        assert delays == [0.03, 0.0, 0.03, 0.0]

    def test_stall_and_duplicate_actions(self, ctx):
        probe = probed(ctx)
        F.Stall("probe.site", count=1).trigger(ctx)
        assert probe.fire().action is Action.STALL
        F.Duplicate("probe.site", count=1).trigger(ctx)
        assert probe.fire().action is Action.DUPLICATE

    def test_fault_events_are_recorded(self, ctx):
        probe = probed(ctx)
        F.Drop("probe.site", count=1).trigger(ctx)
        probe.fire()
        kinds = [e.kind for e in ctx.events]
        assert kinds == ["arm", "fire"]
        assert "Drop(probe.site" in ctx.events[1].description


class TestPartition:
    def test_only_matching_channels_are_delayed(self, ctx):
        probe = probed(ctx, "rac.message")
        F.Partition(between=(1, 2), duration=0.5).trigger(ctx)
        assert probe.fire(src=1, dst=3).action is Action.PROCEED
        blocked = probe.fire(src=1, dst=2)
        assert blocked.action is Action.DELAY
        assert blocked.delay == pytest.approx(0.5)
        reverse = probe.fire(src=2, dst=1)  # both directions cut
        assert reverse.action is Action.DELAY

    def test_partition_heals_after_duration(self, ctx):
        probe = probed(ctx, "rac.message")
        F.Partition(between=(1, 2), duration=0.2).trigger(ctx)
        ctx.sched.run_for(0.3)
        assert probe.fire(src=1, dst=2).action is Action.PROCEED
        assert any(e.kind == "cancel" for e in ctx.events)


class DummyActor:
    def __init__(self, name):
        self.name = name
        self.node = None
        self.speed = 1.0
        self.steps = 0

    def step(self, sched):
        self.steps += 1
        return 0.01


class TestCrashActor:
    def test_crash_without_restart_removes_actor(self, ctx):
        actor = DummyActor("victim-1")
        ctx.sched.add_actor(actor)
        F.CrashActor("victim").trigger(ctx)
        assert actor not in ctx.sched.actors
        ctx.sched.run_for(0.1)
        assert actor.steps == 0

    def test_crash_with_restart_resumes_stepping(self, ctx):
        actor = DummyActor("victim-1")
        ctx.sched.add_actor(actor)
        F.CrashActor("victim", restart_after=0.05).trigger(ctx)
        ctx.sched.run_for(0.2)
        assert actor in ctx.sched.actors
        assert actor.steps > 0
        fired = [e for e in ctx.events if e.kind == "fire"]
        assert len(fired) == 2  # killed + restarted

    def test_no_matching_actor_is_reported(self, ctx):
        F.CrashActor("nobody").trigger(ctx)
        assert "no matching actor" in ctx.events[-1].description


class TestWrappers:
    def test_repeat_triggers_factory_over_time(self, ctx):
        probe = probed(ctx)
        F.Repeat(
            lambda: F.Drop("probe.site", count=1), times=3, interval=0.1
        ).trigger(ctx)
        # first instance armed immediately; the rest at 0.1 and 0.2
        assert probe.fire().action is Action.DROP
        assert probe.fire().action is Action.PROCEED
        ctx.sched.run_for(0.11)
        assert probe.fire().action is Action.DROP
        ctx.sched.run_for(0.1)
        assert probe.fire().action is Action.DROP


class TestFaultPlan:
    def test_arm_schedules_triggers_at_their_times(self, ctx):
        probe = probed(ctx)
        plan = (
            FaultPlan()
            .at(0.2, F.Drop("probe.site", count=1))
            .at(0.1, F.Delay("probe.site", by=0.5, count=1))
        )
        plan.arm(ctx)
        assert probe.fire().action is Action.PROCEED  # nothing armed yet
        ctx.sched.run_for(0.15)
        assert probe.fire().action is Action.DELAY
        ctx.sched.run_for(0.1)
        assert probe.fire().action is Action.DROP

    def test_plans_are_single_use(self, ctx):
        plan = FaultPlan().at(0.1, F.Drop("probe.site"))
        plan.arm(ctx)
        with pytest.raises(RuntimeError, match="single-use"):
            plan.arm(ctx)

    def test_describe_sorts_by_time(self):
        plan = (
            FaultPlan()
            .at(0.9, F.Drop("redo.ship"))
            .at(0.1, F.Stall("flush.worklink", count=3))
        )
        described = plan.describe()
        assert described[0].startswith("t=0.1")
        assert described[1].startswith("t=0.9")
