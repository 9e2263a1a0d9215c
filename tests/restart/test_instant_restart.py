"""Instant restart: warm restore + redo-tail replay correctness."""

from __future__ import annotations

from repro.common.config import ApplyConfig, IMCSConfig, RACConfig, SystemConfig
from repro.db import Deployment, InMemoryService

from tests.chaos.faults import Stall
from tests.db.conftest import load, simple_table_def, small_config
from tests.helpers import log_records
from tests.restart.test_checkpoint import build_armed_deployment


def standby_rows(deployment, predicates=None):
    result = deployment.standby.query("T", predicates)
    return sorted(result.rows), result.stats


class TestInstantRestart:
    def test_restores_warm_and_serves_identical_rows(self):
        deployment, store, __ = build_armed_deployment(n=300)
        deployment.run(1.0)  # a full checkpoint round
        before, before_stats = standby_rows(deployment)
        assert before_stats.imcus_used > 0

        report = deployment.restart_standby()
        assert report.mode == "instant"
        assert report.objects_restored >= 1
        assert report.units_restored > 0
        assert report.rows_restored > 0
        assert not report.coarse_fallback
        # warm without a single population pass
        assert deployment.standby.population.fully_populated()
        after, after_stats = standby_rows(deployment)
        assert after == before
        assert after_stats.imcus_used > 0

    def test_tail_replay_covers_post_checkpoint_commits(self):
        """Commits after the last capture reach the restored masks via the
        re-mined tail; scans stay exact without repopulating."""
        deployment, store, rowids = build_armed_deployment(n=200)
        deployment.run(1.0)
        # mutate after the captured round, then advance without leaving
        # time for a fresh capture round (interval not yet elapsed)
        primary = deployment.primary
        txn = primary.begin()
        for rowid in rowids[:40]:
            primary.update(txn, "T", rowid, {"n1": -1.0})
        primary.commit(txn)
        deployment.catch_up()
        before, __ = standby_rows(deployment)

        report = deployment.restart_standby()
        assert report.mode == "instant"
        assert report.tail_end_scn >= report.tail_start_scn > 0
        assert report.cvs_remined > 0
        after, __ = standby_rows(deployment)
        assert after == before
        assert sum(1 for row in after if row[1] == -1.0) == 40

    def test_tail_starting_mid_log_on_two_threads_remines_what_it_did(self):
        """The tail fetch is a ``searchsorted`` slice per thread, replayed
        thread by thread, where it used to be a walk of every log from
        position 0, re-sorted into SCN-interleaved same-thread runs; a
        bounce with both threads' logs hundreds of records past the floor
        and some post-checkpoint CVs still queued re-mines, and skips,
        exactly what the walk did: every CV of the tail's SCN range,
        counted by walking the logs record by record, is either re-mined
        or skipped as queued.

        A woken worker applies the moment its chunk is queued, so CVs stay
        queued only while a worker is busy: four CVs per step keep the last
        wave in the queues for a few microseconds after its redo lands
        (the 2 ms ship latency), and the bounce falls inside them."""
        config = SystemConfig(
            imcs=IMCSConfig(imcu_target_rows=64, population_workers=1),
            apply=ApplyConfig(n_workers=4, worker_batch=4),
            rac=RACConfig(primary_instances=2),
        )
        deployment = Deployment.build(config=config)
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment, n=200)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.enable_restart_checkpoints()
        deployment.catch_up()
        deployment.run(1.0)  # a full checkpoint round
        primary = deployment.primary
        for wave in range(3):
            txns = [primary.begin(instance_id=1), primary.begin(instance_id=2)]
            for i, rowid in enumerate(rowids[wave * 40:(wave + 1) * 40]):
                primary.update(txns[i % 2], "T", rowid, {"n1": -1.0 - wave})
            for txn in txns:
                primary.commit(txn)
            # the last wave is still being applied at the bounce
            deployment.run(0.004 if wave < 2 else 0.0020025)
        logs = primary.redo_logs
        report = deployment.restart_standby()
        assert report.mode == "instant"
        tail = (report.tail_start_scn, report.tail_end_scn)
        assert tail == (607, 737)
        for log in logs:  # the tail starts mid-log and ends before the end
            lo, hi = log.scn_range(*tail)
            assert 0 < lo < hi < len(log)
        walked = sum(
            len(record.cvs)
            for log in logs
            for record in log_records(log)
            if tail[0] <= record.scn <= tail[1]
        )
        assert report.cvs_remined == 124
        assert report.cvs_skipped_queued == 13
        assert report.cvs_remined + report.cvs_skipped_queued == walked
        deployment.catch_up()
        snapshot = deployment.standby.query_scn.value
        expected = sorted(
            values
            for __, values in primary.catalog.table("T").full_scan(
                snapshot, primary.txn_table
            )
        )
        assert standby_rows(deployment)[0] == expected

    def test_modeled_costs_scale_with_restored_state(self):
        deployment, __, __ = build_armed_deployment(n=300)
        deployment.run(1.0)
        report = deployment.restart_standby()
        assert report.mode == "instant"
        cfg = deployment.config.restart
        assert report.restore_seconds == (
            cfg.restore_cost_per_row * report.rows_restored
        )
        assert report.modeled_seconds >= report.restore_seconds

    def test_cold_flag_forces_cold_and_clears_store(self):
        deployment, store, __ = build_armed_deployment(n=100)
        deployment.run(1.0)
        assert len(store._by_object) > 0
        report = deployment.restart_standby(cold=True)
        assert report.mode == "cold"
        assert report.units_restored == 0
        # a cleared store cannot leak checkpoints across incarnations
        assert len(store._by_object) == 0
        # cold repopulation still converges to correct data
        deployment.catch_up()
        rows, stats = standby_rows(deployment)
        assert len(rows) == 100
        assert stats.imcus_used > 0

    def test_checkpoints_never_survive_their_incarnation(self):
        """The instant path consumes the store: an immediate second bounce
        (no new captures) must go cold rather than restore checkpoints
        taken in a dead incarnation."""
        deployment, store, __ = build_armed_deployment(n=100)
        deployment.run(1.0)
        first = deployment.restart_standby()
        assert first.mode == "instant"
        assert len(store._by_object) == 0
        second = deployment.restart_standby()
        assert second.mode == "cold"
        standby = deployment.standby
        assert standby.restarts == 2
        assert standby.instant_restarts == 1

    def test_unarmed_standby_restarts_cold(self):
        deployment = Deployment.build(config=small_config())
        deployment.create_table(simple_table_def())
        load(deployment, n=80)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()
        report = deployment.restart_standby()
        assert report.mode == "cold"
        deployment.catch_up()
        rows, __ = standby_rows(deployment)
        assert len(rows) == 80

    def test_first_publication_after_restart_not_interval_delayed(self):
        """Regression: ``reset_advance`` used to keep the pre-restart
        ``_last_check`` timestamp, so when the bounce landed right after
        an idle interval check the first post-restart consistency-point
        check -- and with it the first publication -- was deferred by a
        full stale interval."""
        deployment, store, rowids = build_armed_deployment(n=100)
        deployment.run(1.0)
        standby = deployment.standby
        coord = standby.coordinator
        # stall publication so the update applies but cannot publish:
        # the restart then has a ready-to-publish consistency point
        hold = Stall("adg.queryscn_publish", count=1_000_000)
        coord._chaos.attach(hold)
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": -5.0})
        target = deployment.primary.commit(txn)
        assert deployment.sched.run_until_condition(
            lambda: coord.consistency_point() >= target, max_time=10.0
        )
        assert standby.query_scn.value < target
        coord._chaos.detach(hold)
        # worst case: an interval check ran just before the bounce, and
        # the interval is wide enough to make a stale clock visible
        coord.interval = 0.5
        coord._last_check = deployment.sched.now
        report = deployment.restart_standby()
        assert report.mode == "instant"
        assert coord._last_check < 0.0  # the fix: clock reset with state
        t0 = deployment.sched.now
        assert deployment.sched.run_until_condition(
            lambda: standby.query_scn.value >= target, max_time=10.0
        )
        # pre-fix the first check only fired a full interval later
        assert deployment.sched.now - t0 < 0.5

    def test_writer_recaptures_after_restart(self):
        """The incarnation that rises from an instant restart checkpoints
        itself again, so the *next* bounce is warm too."""
        deployment, store, __ = build_armed_deployment(n=100)
        deployment.run(1.0)
        assert deployment.restart_standby().mode == "instant"
        # new publications re-arm the writer
        load(deployment, n=20, start=1_000)
        deployment.catch_up()
        deployment.run(1.0)
        assert len(store._by_object) > 0
        second = deployment.restart_standby()
        assert second.mode == "instant"
        rows, __ = standby_rows(deployment)
        assert len(rows) == 120

    def test_a_restored_unit_is_a_repopulation_base(self):
        """Instant restart reinstalls the very unit it captured, so the
        first repopulation after the bounce gathers every row the SMU
        vouches for instead of re-reading the unit."""
        deployment = Deployment.build(config=small_config())
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment, n=64)
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        standby = deployment.standby
        deployment.enable_restart_checkpoints()
        deployment.catch_up()
        deployment.run(1.0)  # a full checkpoint round
        (oid,) = standby.catalog.table("T").object_ids
        (captured,) = standby.imcs.segment(oid).live_units()

        report = deployment.restart_standby()
        assert report.mode == "instant"
        (restored,) = standby.imcs.segment(oid).live_units()
        assert restored.imcu is captured.imcu
        primary = deployment.primary
        txn = primary.begin()
        for rowid in rowids[:20]:  # past repopulate_invalid_fraction
            primary.update(txn, "T", rowid, {"n1": -1.0, "c1": "new"})
        primary.commit(txn)
        deployment.catch_up()
        assert deployment.sched.run_until_condition(
            lambda: standby.imcs.segment(oid).live_units()[0] is not restored,
            max_time=5.0,
        )
        (repopulated,) = standby.imcs.segment(oid).live_units()
        assert repopulated.imcu.rows_reused == 64 - 20
        deployment.catch_up()
        snapshot = standby.query_scn.value
        expected = sorted(
            values
            for __, values in primary.catalog.table("T").full_scan(
                snapshot, primary.txn_table
            )
        )
        assert standby_rows(deployment)[0] == expected

    def test_any_member_restarts_warm(self):
        """Instant restart is armed per member: bouncing the second of
        two standbys restores it warm from *its own* checkpoints and
        leaves the first serving, untouched."""
        deployment = Deployment.build(config=small_config(), n_standbys=2)
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment, n=200)
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.enable_restart_checkpoints()
        deployment.catch_up()
        deployment.run(1.0)  # a full checkpoint round on both members
        first, second = deployment.members
        assert first.standby.checkpoint_store is not (
            second.standby.checkpoint_store
        )
        txn = deployment.primary.begin()
        for rowid in rowids[:30]:
            deployment.primary.update(txn, "T", rowid, {"n1": -2.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        before = sorted(second.query("T").rows)

        report = deployment.restart_standby(member="standby-2")
        assert report.mode == "instant"
        assert report.units_restored > 0 and report.cvs_remined > 0
        assert second.standby.restarts == 1
        assert first.standby.restarts == 0
        assert sorted(second.query("T").rows) == before
        load(deployment, n=10, start=5_000)
        deployment.catch_up()
        assert len(second.query("T").rows) == 210
        assert sorted(first.query("T").rows) == sorted(second.query("T").rows)
