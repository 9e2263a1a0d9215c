"""Tests for parallel apply, the recovery coordinator and the QuerySCN."""

import pytest

from repro.adg import (
    ApplyDistributor,
    ListenerFanoutError,
    LogMerger,
    QuerySCNPublisher,
    RecoveryCoordinator,
    RecoveryWorker,
)
from repro.adg.coordinator import COORDINATION_COST, FLUSH_COST_PER_NODE
from repro.chaos import sites
from repro.common import InvalidStateError, TransactionId
from repro.redo import CVOp, RedoReceiver
from repro.db import Deployment, InMemoryService
from repro.sim import Scheduler
from tests.chaos.faults import Stall
from tests.db.conftest import load, simple_table_def, small_config
from tests.helpers import (
    NullApplier,
    batch_of,
    queued_scn_cvs,
    run_steps,
    standby_reads_like_primary,
)
from tests.naive_batch import ChangeVector, InsertPayload, RedoRecord

X = TransactionId(1, 1)


def adjusted_publish_latency(coord) -> float:
    """Mean publish latency with blocked time (injected stalls and
    delays) excluded: the advancement protocol's own cost."""
    if not coord.advancements:
        return 0.0
    return (
        coord.publish_latency_total - coord.publish_stall_time_total
    ) / coord.advancements


class RecordingApplier(NullApplier):
    def __init__(self):
        self.applied = []

    def apply_cv(self, batch, i, scn):
        self.applied.append((scn, int(batch.dbas[i])))


def rec(scn, dba, thread=1):
    cv = ChangeVector(CVOp.INSERT, dba, 9, 0, X, InsertPayload(0, (1,)))
    return RedoRecord(scn, thread, (cv,))


class TestDistributor:
    def test_same_dba_always_same_worker(self):
        distributor = ApplyDistributor(4, NullApplier())
        records = [rec(scn, dba=7) for scn in range(10, 20)]
        distributor.distribute([batch_of(records)])
        non_empty = [q for q in distributor.queues if q]
        assert len(non_empty) == 1
        assert [scn for scn, __ in queued_scn_cvs(non_empty[0])] == list(
            range(10, 20)
        )

    def test_spreads_dbas_across_workers(self):
        distributor = ApplyDistributor(4, NullApplier())
        distributor.distribute([batch_of([rec(10 + d, dba=d) for d in range(64)])])
        assert sum(1 for q in distributor.queues if q) == 4

    def test_distributed_through_tracks_max_scn(self):
        distributor = ApplyDistributor(2, NullApplier())
        distributor.distribute([batch_of([rec(10, 1), rec(15, 2)])])
        assert distributor.distributed_through == 15


class TestRecoveryWorker:
    def test_applies_in_scn_order(self):
        distributor = ApplyDistributor(1, NullApplier())
        applier = RecordingApplier()
        worker = RecoveryWorker(0, distributor, applier)
        distributor.distribute([batch_of([rec(s, dba=1) for s in (10, 11, 12)])])
        sched = Scheduler()
        sched.add_actor(worker)
        sched.run_until(0.1)
        assert [scn for scn, __ in applier.applied] == [10, 11, 12]
        assert worker.applied_scn == 12

    def test_applied_through_with_empty_queue(self):
        distributor = ApplyDistributor(2, NullApplier())
        applier = RecordingApplier()
        w0 = RecoveryWorker(0, distributor, applier)
        distributor.distribute([batch_of([rec(50, dba=1)])])
        # whichever worker got nothing reports distributed_through
        empty = w0 if not distributor.queues[0] else None
        if empty is not None:
            assert empty.applied_through() == 50

    def test_applied_through_with_backlog(self):
        distributor = ApplyDistributor(1, NullApplier())
        worker = RecoveryWorker(0, distributor, RecordingApplier())
        distributor.distribute([batch_of([rec(50, dba=1)])])
        assert worker.applied_through() == 49

    def test_flush_helper_called_each_step(self):
        distributor = ApplyDistributor(1, NullApplier())
        calls = []
        worker = RecoveryWorker(
            0, distributor, RecordingApplier(),
            flush_helper=lambda wid, batch: calls.append((wid, batch)) or 0,
        )
        distributor.distribute([batch_of([rec(10, dba=1)])])
        sched = Scheduler()
        sched.add_actor(worker)
        run_steps(sched, 1)
        assert calls == [(0, worker.flush_batch)]


class TestQuerySCNPublisher:
    def test_publish_advances_and_records_history(self):
        publisher = QuerySCNPublisher()
        publisher.publish(10, at_time=1.0)
        publisher.publish(25, at_time=2.0)
        assert publisher.value == 25
        assert publisher.history == [(1.0, 10), (2.0, 25)]

    def test_publish_backwards_rejected(self):
        publisher = QuerySCNPublisher()
        publisher.publish(10)
        with pytest.raises(InvalidStateError):
            publisher.publish(5)

    def test_same_value_is_noop(self):
        publisher = QuerySCNPublisher()
        publisher.publish(10)
        publisher.publish(10)
        assert len(publisher.history) == 1

    def test_listeners_notified(self):
        publisher = QuerySCNPublisher()
        seen = []
        publisher.subscribe(seen.append)
        publisher.publish(10)
        assert seen == [10]

    def test_poisoned_listener_cannot_wedge_fanout(self):
        """Regression: one raising listener used to abort the fan-out
        after value/history had already advanced, leaving every listener
        registered after it (a non-master RAC coordinator, the fleet
        router's lag gauges) permanently behind.  All listeners must be notified and
        the failures aggregated."""
        publisher = QuerySCNPublisher()
        seen = []
        poisoned = {"remaining": 1}

        def poison(scn):
            if poisoned["remaining"]:
                poisoned["remaining"] -= 1
                raise RuntimeError("subscriber bug")

        publisher.subscribe(poison)
        publisher.subscribe(seen.append)  # the RAC-propagation stand-in
        with pytest.raises(ListenerFanoutError) as excinfo:
            publisher.publish(10, at_time=1.0)
        # publication completed: value, history and *every* listener
        assert publisher.value == 10
        assert publisher.history == [(1.0, 10)]
        assert seen == [10]
        assert excinfo.value.scn == 10
        assert len(excinfo.value.errors) == 1
        assert isinstance(excinfo.value.errors[0], RuntimeError)
        # the publisher is not wedged: the next publication is clean
        publisher.publish(25, at_time=2.0)
        assert seen == [10, 25]
        assert publisher.value == 25


class AlwaysComplete:
    """The smallest advance protocol: nothing to chop, drain or retire."""

    def begin_advance(self, target):
        pass

    def coordinator_flush(self, batch):
        return 0

    def is_advance_complete(self):
        return True

    def finish_advance(self, target):
        pass


def build_pipeline(n_workers=2, worker_speeds=None):
    receiver = RedoReceiver()
    receiver.register_thread(1)
    merger = LogMerger(receiver)
    distributor = ApplyDistributor(n_workers, NullApplier())
    applier = RecordingApplier()
    workers = []
    for i in range(n_workers):
        worker = RecoveryWorker(i, distributor, applier)
        if worker_speeds:
            worker.speed = worker_speeds[i]
        workers.append(worker)
    query_scn = QuerySCNPublisher()
    coordinator = RecoveryCoordinator(
        merger, distributor, workers, query_scn, AlwaysComplete(),
        interval=0.001,
    )
    sched = Scheduler()
    sched.add_actor(merger)
    sched.add_actor(coordinator)
    for worker in workers:
        sched.add_actor(worker)
    return receiver, merger, query_scn, coordinator, sched, applier


class TestCoordinator:
    def test_queryscn_reaches_applied_scn(self):
        receiver, merger, query_scn, coord, sched, applier = build_pipeline()
        receiver.deliver(
            batch_of([rec(scn, dba=scn % 7) for scn in range(10, 110)])
        )
        sched.run_until(1.0)
        assert query_scn.value == 109
        assert len(applier.applied) == 100

    def test_queryscn_leapfrogs(self):
        """With unequal worker speeds the published values skip SCNs."""
        receiver, merger, query_scn, coord, sched, applier = build_pipeline(
            n_workers=4, worker_speeds=[1.0, 30.0, 1.0, 15.0]
        )
        receiver.deliver(
            batch_of([rec(scn, dba=scn) for scn in range(10, 510)])
        )
        sched.run_until(2.0)
        published = [scn for __, scn in query_scn.history]
        assert published == sorted(published)
        assert query_scn.value == 509
        gaps = [b - a for a, b in zip(published, published[1:])]
        assert any(gap > 1 for gap in gaps)

    def test_consistency_point_bounded_by_slowest_worker(self):
        receiver, merger, query_scn, coord, sched, applier = build_pipeline()
        receiver.deliver(
            batch_of([rec(scn, dba=scn % 5) for scn in range(10, 60)])
        )
        merger.merge_available()
        coord.distributor.distribute(merger.take_merged(1000))
        # nothing applied yet: the point sits below every queued CV
        assert coord.consistency_point() < 10

    def test_adjusted_publish_latency_excludes_stall_time(self):
        """Regression: the mean publish latency used to charge publication
        stalls to the advancement itself, hiding pipeline slowness behind
        them.  The stall-adjusted mean strips the window spent postponed;
        the raw mean keeps its historical meaning."""
        receiver, merger, query_scn, coord, sched, applier = build_pipeline()
        hold = Stall("adg.queryscn_publish", count=1_000_000)
        coord._chaos.attach(hold)
        receiver.deliver(batch_of([rec(10, dba=1)]))
        sched.run_until(0.2)
        assert query_scn.value == 0  # postponed behind the stall
        coord._chaos.detach(hold)
        sched.run_until(0.4)
        assert query_scn.value == 10
        assert coord.publish_stalls >= 1
        assert coord.publish_stall_time_total > 0.0
        assert adjusted_publish_latency(coord) >= 0.0
        assert (
            adjusted_publish_latency(coord)
            < coord.mean_publish_latency
        )
        # the two means are linked by exactly the stall time
        assert coord.mean_publish_latency - \
            adjusted_publish_latency(coord) == pytest.approx(
                coord.publish_stall_time_total / coord.advancements
            )

    def test_unstalled_advance_has_equal_raw_and_adjusted_latency(self):
        receiver, merger, query_scn, coord, sched, applier = build_pipeline()
        receiver.deliver(batch_of([rec(10, dba=1)]))
        sched.run_until(0.5)
        assert query_scn.value == 10
        assert coord.publish_stall_time_total == 0.0
        assert adjusted_publish_latency(coord) == pytest.approx(
            coord.mean_publish_latency
        )

    def test_mean_latencies_zero_before_first_advancement(self):
        receiver, merger, query_scn, coord, sched, applier = build_pipeline()
        assert coord.advancements == 0
        assert coord.mean_publish_latency == 0.0
        assert adjusted_publish_latency(coord) == 0.0

    def test_chaos_delay_defers_publication_by_its_duration(self):
        """Regression: a DELAY decision at ``adg.queryscn_publish`` used
        to be handled exactly like STALL -- counted as a stall and
        retried on the next (microsecond) step, so the injected delay
        duration was never consumed.  The delay must ride on the
        rescheduling cost and be counted separately."""
        registry = sites.SiteRegistry()
        with sites.recording(registry):
            receiver, merger, query_scn, coord, sched, applier = (
                build_pipeline()
            )

        class OneShotDelay:
            fired_at = None

            def decide(self, site, event, context):
                if self.fired_at is None:
                    self.fired_at = sched.now
                    return sites.Decision(sites.Action.DELAY, delay=0.1)
                return sites.PROCEED

        injector = OneShotDelay()
        registry.install("adg.queryscn_publish", injector)
        receiver.deliver(batch_of([rec(10, dba=1)]))
        sched.run_until(0.5)
        assert query_scn.value == 10
        assert injector.fired_at is not None
        # counted as a delay, not folded into the stall counter
        assert coord.publish_delays == 1
        assert coord.publish_stalls == 0
        # the injected duration was actually consumed before the retry
        publish_time = query_scn.history[0][0]
        assert publish_time >= injector.fired_at + 0.1
        # deferral is blocked wall time: excluded from adjusted latency
        assert coord.publish_stall_time_total >= 0.1
        assert (
            adjusted_publish_latency(coord) < coord.mean_publish_latency
        )

    def test_reset_advance_clears_check_clock(self):
        """Regression: ``reset_advance`` kept the pre-restart
        ``_last_check`` timestamp, deferring the first post-restart
        consistency-point check by up to a full stale interval."""
        receiver, merger, query_scn, coord, sched, applier = build_pipeline()
        receiver.deliver(batch_of([rec(10, dba=1)]))
        sched.run_until(0.5)
        assert coord._last_check >= 0.0
        coord.reset_advance()
        assert coord._last_check < 0.0  # first check fires immediately
        assert coord._advancing_to is None

    def test_advance_protocol_hooks_called_in_order(self):
        """The protocol is installed *after* construction (tests and the
        e2e tracer swap or wrap it): the coordinator must read it on every
        step, and drive chop -> drain -> publish -> retire in that order."""
        calls = []

        class Protocol(AlwaysComplete):
            def begin_advance(self, target):
                calls.append(("begin", target))

            def coordinator_flush(self, batch):
                calls.append(("flush", batch))
                return 0

            def finish_advance(self, target):
                calls.append(("finish", target, query_scn.value))

        receiver, merger, query_scn, coord, sched, applier = build_pipeline()
        coord.advance_protocol = Protocol()
        receiver.deliver(batch_of([rec(10, dba=1)]))
        sched.run_until(0.5)
        assert query_scn.value == 10
        assert [call[0] for call in calls] == (
            ["begin", "flush", "finish"] * (len(calls) // 3)
        )
        assert calls[-3:] == [
            ("begin", 10),
            ("flush", coord.flush_batch),
            ("finish", 10, 10),  # post-publication
        ]

    def test_drain_steps_are_charged_per_flushed_node(self):
        """Every step of the drain is charged per flushed node; the step
        that found the consistency point and the one that publishes add a
        bookkeeping pass each."""

        class Draining(AlwaysComplete):
            remaining = 2 * 32 + 5

            def coordinator_flush(self, batch):
                flushed = min(batch, self.remaining)
                self.remaining -= flushed
                return flushed

            def is_advance_complete(self):
                return self.remaining == 0

        receiver, merger, query_scn, coord, sched, __ = build_pipeline()
        coord.advance_protocol = Draining()
        sched.remove_actor(coord)
        receiver.deliver(batch_of([rec(10, dba=1)]))
        merger.merge_available()
        coord.distributor.distribute(merger.take_merged(1000))
        sched.run_until(0.1)  # applied: the consistency point is 10
        costs = []
        while query_scn.value < 10:
            costs.append(coord.step(sched))
        assert costs == [
            COORDINATION_COST + FLUSH_COST_PER_NODE * 32,
            FLUSH_COST_PER_NODE * 32,
            FLUSH_COST_PER_NODE * 5 + COORDINATION_COST,
        ]


def advancing_deployment(delay: float = 0.0):
    """A deployment whose standby has chopped, but cannot yet publish, an
    advancement over a 20-row update begun ``delay`` sim-seconds after the
    catch-up; returns it with that advancement's target and the update's
    commit SCN."""
    deployment = Deployment.build(config=small_config())
    deployment.create_table(simple_table_def())
    rowids, __ = load(deployment, n=80)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    deployment.catch_up()
    if delay:
        deployment.sched.run_for(delay)
    coord = deployment.standby.coordinator
    # the advancement drains, but cannot publish until ``hold`` detaches
    hold = Stall("adg.queryscn_publish", count=1_000_000)
    coord._chaos.attach(hold)
    txn = deployment.primary.begin()
    for rowid in rowids[:20]:
        deployment.primary.update(txn, "T", rowid, {"n1": -1.0})
    target = deployment.primary.commit(txn)
    assert deployment.sched.run_until_condition(
        lambda: coord._advancing_to is not None, max_time=10.0
    )
    stale = coord._advancing_to
    assert deployment.standby.flush.worklink is not None
    assert deployment.standby.query_scn.value < stale
    coord._chaos.detach(hold)
    return deployment, stale, target


def test_restart_abandons_an_in_flight_advancement():
    """An advancement chopped but not yet published when the standby
    bounces must not publish its pre-restart target: ``reset_advance``
    drops it with the worklink, and the next one re-derives everything
    the redo tail re-mines."""
    deployment, stale, target = advancing_deployment()
    standby = deployment.standby
    coord = standby.coordinator
    deployment.restart_standby(cold=True)
    assert coord._advancing_to is None
    assert standby.flush.worklink is None
    assert standby.query_scn.value < stale  # the stale target died

    deployment.catch_up()
    assert standby.query_scn.value >= target
    assert standby_reads_like_primary(deployment)


def test_cold_restart_populates_no_unit_below_the_redo_it_forgot():
    """Regression: a cold bounce clears the journal and commit table, and
    with them the invalidations mined from redo it had already merged.
    Population at the pre-bounce QuerySCN then built units below commits
    nothing would invalidate, and scans served their stale rows -- at
    update phases of 30-37.75 ms.  ``population_floor`` holds population
    back until the QuerySCN passes that redo, at every phase."""
    diverged = []
    for phase in range(121):
        delay = phase * 0.0005
        deployment, __, __ = advancing_deployment(delay)
        deployment.restart_standby(cold=True)
        deployment.catch_up()
        if not standby_reads_like_primary(deployment):
            diverged.append(delay)
    assert diverged == []
