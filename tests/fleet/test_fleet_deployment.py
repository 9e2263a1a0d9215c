"""Deployment with N standby members: one primary shipping redo to N
standbys."""

from __future__ import annotations

import zlib

import pytest

from repro.db import Deployment, InMemoryService
from repro.imcs import Predicate
from repro.redo.log import RedoLog
from repro.redo.shipping import LogShipper, RedoReceiver

from tests.db.conftest import simple_table_def, small_config
from tests.fleet.conftest import load_fleet


class TestBuild:
    def test_members_materialise_identical_tables(self, fleet):
        deployment, __ = fleet
        assert len(deployment.members) == 3
        primary_ids = deployment.primary.catalog.table("T").object_ids
        for member in deployment.members:
            assert member.standby.catalog.table("T").object_ids == primary_ids

    def test_every_member_serves_the_same_rows(self, fleet):
        deployment, __ = fleet
        for member in deployment.members:
            result = member.query("T", [Predicate.eq("c1", "v3")])
            assert len(result.rows) == 20
            assert result.stats.imcus_used >= 1

    def test_degenerate_fleet_of_one(self):
        """N = 1 *is* the two-node deployment: ``deployment.standby`` and
        ``members[0].standby`` are one object, and a fixed workload
        publishes a pinned QuerySCN history -- re-pinned when the standby
        dictionary moved to distribution time: the 3 apply stalls the
        table's set-up paid under static hashing are gone, so publications
        land ~1 us earlier; re-pinned again when a woken actor resumes at
        the waking instant instead of on its next 1 ms poll (same count,
        earlier publications; the standby has caught up when the last
        ``run`` returns, so ``catch_up`` runs no further)."""
        fleet = Deployment.build(config=small_config())
        assert len(fleet.members) == 1
        assert fleet.standby is fleet.members[0].standby
        assert fleet.members[0].name == "standby-1"
        fleet.create_table(simple_table_def())
        rowids, __ = load_fleet(fleet, n=400)
        fleet.enable_inmemory("T", service=InMemoryService.STANDBY)
        fleet.catch_up()
        for k in range(60):
            txn = fleet.primary.begin()
            for j in range(5):
                fleet.primary.update(
                    txn, "T", rowids[(k * 7 + j * 13) % 400],
                    {"n1": float(k * 100 + j)},
                )
            fleet.primary.commit(txn)
            fleet.run(0.01)
        fleet.catch_up()
        assert len(fleet.members[0].query("T").rows) == 400
        history = fleet.standby.query_scn.history
        crc = zlib.crc32(
            repr([(round(t, 12), scn) for t, scn in history]).encode()
        )
        assert (len(history), crc) == (66, 2398345407)
        assert repr(fleet.sched.now) == "0.6600000000000004"
        assert fleet.standby.imcs.rows_invalidated == 300
        assert fleet.standby.population.repopulations == 13

    def test_fleet_needs_at_least_one_member(self):
        with pytest.raises(ValueError):
            Deployment.build(config=small_config(), n_standbys=0)

    def test_actor_names_are_namespaced_per_member(self, fleet):
        deployment, __ = fleet
        names = [actor.name for actor in deployment.sched.actors]
        assert len(names) == len(set(names))
        for member in deployment.members:
            assert any(n == f"{member.name}-log-merger" for n in names)
            assert any(n == f"{member.name}-recovery-coordinator"
                       for n in names)


class TestReplication:
    def test_later_commits_reach_every_member(self, fleet):
        deployment, __ = fleet
        load_fleet(deployment, n=25, start=1000)
        deployment.catch_up()
        for member in deployment.members:
            assert len(member.query("T").rows) == 125

    def test_members_lag_independently(self, fleet):
        """A gap shipped to one member heals by FAL without touching the
        others: remove one destination, commit, re-add, catch up."""
        deployment, __ = fleet
        victim = deployment.members[1]
        for shipper in deployment.shippers:
            shipper.remove_destination(victim.name)
        load_fleet(deployment, n=10, start=2000)
        deployment.run(0.2)
        # the detached member missed the batches entirely
        assert len(victim.query("T").rows) == 100
        others = [m for m in deployment.members if m is not victim]
        for member in others:
            assert len(member.query("T").rows) == 110
        # reattach: the receiver sees a gap at the next delivery and
        # FAL-heals it from the primary's log
        for shipper in deployment.shippers:
            shipper.add_destination(victim.name, victim.standby.receiver)
        load_fleet(deployment, n=5, start=3000)
        deployment.catch_up()
        assert len(victim.query("T").rows) == 115

    def test_duplicate_destination_rejected(self):
        receiver = RedoReceiver()
        shipper = LogShipper(RedoLog(thread=1), {"standby-1": receiver})
        with pytest.raises(ValueError):
            shipper.add_destination("standby-1", receiver)


class TestStandbyLoss:
    def test_lose_standby_dismounts_and_stops_shipping(self, fleet):
        deployment, __ = fleet
        lost = deployment.lose_standby("standby-2")
        assert not lost.mounted
        assert deployment.mounted_members == [
            deployment.member("standby-1"), deployment.member("standby-3"),
        ]
        for shipper in deployment.shippers:
            assert "standby-2" not in shipper._receivers
        names = [actor.name for actor in deployment.sched.actors]
        assert not any(n.startswith("standby-2-") for n in names)

    def test_survivors_catch_up_after_loss(self, fleet):
        deployment, __ = fleet
        deployment.lose_standby("standby-1")
        frozen_scn = deployment.member("standby-1").published_scn
        load_fleet(deployment, n=10, start=5000)
        deployment.catch_up()
        for member in deployment.mounted_members:
            assert len(member.query("T").rows) == 110
        # the lost member's pipeline is gone: its QuerySCN froze
        assert deployment.member("standby-1").published_scn == frozen_scn

    def test_loss_fires_registered_callbacks(self, fleet):
        deployment, __ = fleet
        seen = []
        deployment.on_standby_loss.append(lambda m: seen.append(m.name))
        deployment.lose_standby("standby-3")
        assert seen == ["standby-3"]
        # losing an already-lost member is a no-op
        deployment.lose_standby("standby-3")
        assert seen == ["standby-3"]

    def test_redo_lag_ignores_lost_members(self, fleet):
        deployment, __ = fleet
        deployment.lose_standby("standby-1")
        load_fleet(deployment, n=10, start=6000)
        deployment.catch_up()
        # the dismounted member lags forever; the fleet gauge must not
        # report it (it would wedge the chaos report's final lag)
        lost = deployment.member("standby-1")
        assert deployment.member_lag(lost) > 0
        assert deployment.redo_lag_scns == max(
            deployment.member_lag(m) for m in deployment.mounted_members
        )


class TestQueryServices:
    def test_morsel_service_per_member(self, fleet):
        deployment, __ = fleet
        deployment.start_query_service(n_workers=2)
        handles = [
            member.query_service.submit("T", [Predicate.eq("c1", "v1")])
            for member in deployment.members
        ]
        deployment.sched.run_until_condition(
            lambda: all(h.done for h in handles), max_time=30.0
        )
        for handle in handles:
            assert len(handle.result.rows) == 20


class TestDedicatedCDCMember:
    def test_cdc_streams_from_the_named_member(self, fleet):
        """A reader farm dedicates one standby to CDC: the feed attaches
        to the named member, replays to that member's rows, and dies
        with it."""
        from repro.cdc import ReplaySubscriber

        deployment, __ = fleet
        egress = deployment.start_cdc(tables=["T"], member="standby-3")
        source = deployment.member("standby-3")
        assert source.cdc is egress and deployment.member().cdc is None
        replica = ReplaySubscriber()
        egress.subscribe(replica, name="replica")
        load_fleet(deployment, n=15, start=8000)
        deployment.catch_up()
        assert deployment.sched.run_until_condition(
            lambda: egress.drained, max_time=60.0
        )
        assert replica.rows("T") == sorted(source.query("T").rows)
        assert len(replica.rows("T")) == 115
        deployment.lose_standby("standby-3")
        names = [actor.name for actor in deployment.sched.actors]
        assert "standby-3-cdc-pump" not in names
