"""CDC egress: certified cuts, live feed, resyncs, subscriber delivery."""

from __future__ import annotations

import pytest

from repro import obs
from repro.cdc import (
    BACKFILL,
    DELETE,
    DROP,
    LIVE,
    RESYNC,
    UPSERT,
    CollectingSubscriber,
    ReplaySubscriber,
)
from repro.chaos import sites
from repro.common.errors import NotInMemoryError
from repro.db import Deployment, InMemoryService

from tests.db.conftest import load, simple_table_def, small_config


def build_cdc_deployment(n=60, backfill=True, tables=("T",)):
    """A deployment with T enabled + captured and a replica subscriber.

    Capture starts *after* the initial load has caught up, so the
    preexisting rows reach the replica through the chunked backfill
    (the default) while later changes arrive as live certified cuts;
    ``backfill=False`` captures live-only.
    """
    deployment = Deployment.build(config=small_config())
    deployment.create_table(simple_table_def())
    rowids, __ = load(deployment, n=n)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    deployment.catch_up()
    egress = deployment.start_cdc(tables=list(tables), backfill=backfill)
    replica = ReplaySubscriber()
    egress.subscribe(replica, name="replica")
    return deployment, egress, replica, rowids


def drain(deployment, egress, timeout=60.0):
    assert deployment.sched.run_until_condition(
        lambda: egress.drained, max_time=timeout
    ), "CDC egress never drained"


def standby_rows(deployment, table="T"):
    return sorted(deployment.standby.query(table).rows)


class TestCapture:
    def test_capture_requires_inmemory_enablement(self):
        deployment = Deployment.build(config=small_config())
        deployment.create_table(simple_table_def())
        deployment.create_table(simple_table_def(name="U"))
        load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.run_until_standby_has("U")
        egress = deployment.start_cdc(tables=["T"])
        # mining only journals IMCS-enabled objects: a non-enabled table
        # would silently produce an empty feed, so capture refuses it
        with pytest.raises(NotInMemoryError):
            egress.capture("U")
        assert egress.captured_tables == {"T"}

    def test_deployment_start_cdc_attaches_pump(self):
        deployment, egress, __, __ = build_cdc_deployment()
        assert deployment.cdc is egress
        assert any(
            actor.name == "standby-1-cdc-pump"
            for actor in deployment.sched.actors
        )


class TestLiveFeed:
    def test_live_changes_replay_to_identical_rows(self):
        deployment, egress, replica, rowids = build_cdc_deployment()
        primary = deployment.primary
        for burst in range(5):
            txn = primary.begin()
            for k in range(8):
                primary.update(
                    txn, "T", rowids[(burst * 11 + k) % len(rowids)],
                    {"n1": float(burst * 100 + k)},
                )
            primary.insert(txn, "T", (1000 + burst, -1.0, "new"))
            primary.commit(txn)
            deployment.run(0.1)
        deployment.catch_up()
        drain(deployment, egress)
        assert replica.rows("T") == standby_rows(deployment)
        assert egress.emitted > 0
        assert egress.resolved > 0

    def test_delete_emits_tombstone(self):
        deployment, egress, replica, rowids = build_cdc_deployment(n=20)
        events = CollectingSubscriber()
        deployment.cdc.subscribe(events, name="collector")
        primary = deployment.primary
        txn = primary.begin()
        primary.delete(txn, "T", rowids[0])
        primary.commit(txn)
        deployment.catch_up()
        drain(deployment, egress)
        kinds = {e.kind for e in events.events if e.source == LIVE}
        assert kinds == {DELETE}
        assert len(replica.rows("T")) == 19
        assert replica.rows("T") == standby_rows(deployment)

    def test_events_carry_certified_cut_scns(self):
        """Every live event's SCN is a *published* QuerySCN and the
        feed's SCNs are non-decreasing (cuts certify in order)."""
        deployment, egress, __, rowids = build_cdc_deployment(
            n=20, backfill=False
        )
        events = CollectingSubscriber()
        deployment.cdc.subscribe(events, name="collector")
        primary = deployment.primary
        for burst in range(4):
            txn = primary.begin()
            primary.update(txn, "T", rowids[burst], {"n1": -float(burst)})
            primary.commit(txn)
            deployment.run(0.1)
        deployment.catch_up()
        drain(deployment, egress)
        published = {scn for __, scn in
                     deployment.standby.query_scn.history}
        scns = [e.scn for e in events.events]
        assert scns, "no live events captured"
        assert all(e.source == LIVE for e in events.events)
        assert set(scns) <= published
        assert scns == sorted(scns)


class TestResync:
    def test_truncate_resyncs_to_empty_then_refills(self):
        deployment, egress, replica, rowids = build_cdc_deployment(n=24)
        primary = deployment.primary
        txn = primary.begin()
        primary.update(txn, "T", rowids[0], {"n1": -1.0})
        primary.commit(txn)
        deployment.catch_up()
        drain(deployment, egress)
        assert len(replica.rows("T")) == 24

        primary.truncate_table("T")
        deployment.catch_up()
        drain(deployment, egress)
        assert egress.resyncs >= 1
        assert replica.rows("T") == [] == standby_rows(deployment)

        txn = primary.begin()
        for i in range(5):
            primary.insert(txn, "T", (9000 + i, float(i), "post"))
        primary.commit(txn)
        deployment.catch_up()
        drain(deployment, egress)
        assert len(replica.rows("T")) == 5
        assert replica.rows("T") == standby_rows(deployment)

    def test_drop_table_ends_capture_with_drop_event(self):
        deployment, egress, replica, __ = build_cdc_deployment(n=12)
        events = CollectingSubscriber()
        deployment.cdc.subscribe(events, name="collector")
        deployment.primary.drop_table("T")
        deployment.run(1.0)
        drain(deployment, egress)
        assert any(e.kind == DROP for e in events.events)
        assert egress.captured_tables == set()
        assert "T" not in replica.tables  # replica dropped the table too

    def test_coarse_invalidation_resyncs_all_captured(self):
        deployment, egress, replica, rowids = build_cdc_deployment(n=16)
        deployment.catch_up()
        drain(deployment, egress)
        events = CollectingSubscriber()
        egress.subscribe(events, name="collector")
        # a coarse invalidation ("everything below S may be stale") must
        # re-certify every captured object from scratch
        egress.on_coarse_invalidation(0, deployment.standby.query_scn.value)
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": -9.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        drain(deployment, egress)
        assert any(e.kind == RESYNC for e in events.events)
        assert replica.rows("T") == standby_rows(deployment)


class TestSubscriberDelivery:
    def test_multiple_subscribers_see_the_same_feed(self):
        deployment, egress, replica, rowids = build_cdc_deployment(n=20)
        second = ReplaySubscriber()
        egress.subscribe(second, name="replica-2")
        txn = deployment.primary.begin()
        for k in range(6):
            deployment.primary.update(
                txn, "T", rowids[k], {"n1": float(k)}
            )
        deployment.primary.commit(txn)
        deployment.catch_up()
        drain(deployment, egress)
        assert replica.rows("T") == second.rows("T") == (
            standby_rows(deployment)
        )

    def test_chaos_delay_parks_one_subscriber(self):
        registry = sites.SiteRegistry()
        with sites.recording(registry), obs.collecting(obs.MetricsRegistry()):
            deployment, egress, replica, rowids = build_cdc_deployment(n=20)

        class DelayOnce:
            fired = 0

            def decide(self, site, event, context):
                if context.get("subscriber") == "replica" and not self.fired:
                    self.fired += 1
                    return sites.Decision(sites.Action.DELAY, delay=0.2)
                return sites.PROCEED

        registry.install("cdc.emit", DelayOnce())
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": -3.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        drain(deployment, egress)
        # delivery was parked, yet the feed converged and recorded lag
        assert replica.rows("T") == standby_rows(deployment)
        lag = egress._lag_hist.stats()
        assert lag["count"] > 0
        assert lag["max"] >= 0.2
        sub = egress._subscriptions[0]
        assert sub.delivered > 0
