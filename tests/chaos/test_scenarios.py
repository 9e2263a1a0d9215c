"""Tests for the canned chaos scenarios.

The exhaustive all-scenarios determinism sweep lives in the CLI
(``python -m tests.chaos --scenario all``); here each interesting
scenario runs once and its report is checked for the behaviour it is
supposed to provoke (gaps healed, duplicates discarded, stalls retried).
"""

import pytest

from tests.chaos.harness import run_scenario
from tests.chaos.scenarios import SCENARIOS, get_scenario


class TestRoster:
    def test_expected_scenarios_exist(self):
        assert {
            "baseline",
            "shipping_outage",
            "fal_gap_storm",
            "dup_reorder",
            "worker_crash_flush",
            "publish_stall",
            "restart_storm",
            "rac_chaos",
            "failover_mid_flush",
            "standby_loss_mid_wave",
        } <= set(SCENARIOS)

    def test_unknown_scenario_raises_with_roster(self):
        with pytest.raises(KeyError, match="baseline"):
            get_scenario("nope")


class TestScenarioBehaviour:
    def test_fal_gap_storm_heals_gaps(self):
        report = run_scenario(get_scenario("fal_gap_storm"), seed=7)
        assert report.passed, report.to_text()
        assert report.stats["gaps_resolved"] >= 1
        assert report.stats["ship_records_dropped"] >= 1

    def test_dup_reorder_discards_redeliveries(self):
        report = run_scenario(get_scenario("dup_reorder"), seed=7)
        assert report.passed, report.to_text()
        assert report.stats["duplicates_discarded"] >= 1

    def test_shipping_outage_lag_grows_then_recovers(self):
        report = run_scenario(get_scenario("shipping_outage"), seed=7)
        assert report.passed, report.to_text()
        assert report.lag_peak > 20  # redo backed up during the outage
        assert report.lag_final < report.lag_peak  # and drained after

    def test_worker_crash_flush_recovers(self):
        report = run_scenario(get_scenario("worker_crash_flush"), seed=7)
        assert report.passed, report.to_text()
        assert report.stats["flush_chaos_stalls"] >= 1

    def test_publish_stall_retries_then_publishes(self):
        report = run_scenario(get_scenario("publish_stall"), seed=7)
        assert report.passed, report.to_text()
        assert report.stats["publish_stalls"] >= 1
        assert report.stats["publications"] > 0

    def test_restart_storm_bounces_and_stays_exact(self):
        report = run_scenario(get_scenario("restart_storm"), seed=7)
        assert report.passed, report.to_text()
        assert report.stats["standby_restarts"] == 3

    def test_rac_chaos_cluster_stays_consistent(self):
        report = run_scenario(get_scenario("rac_chaos"), seed=7)
        assert report.passed, report.to_text()

    def test_failover_mid_flush_preserves_committed_data(self):
        report = run_scenario(get_scenario("failover_mid_flush"), seed=7)
        assert report.passed, report.to_text()
        names = [r.name for r in report.invariants]
        assert "failover_preserves_committed_data" in names

    def test_standby_loss_mid_wave_drains_and_keeps_ryw(self):
        report = run_scenario(get_scenario("standby_loss_mid_wave"), seed=7)
        assert report.passed, report.to_text()
        # the loss really exercised the drain/rebind path
        assert report.stats["router_drained"] >= 1
        assert report.stats["wave_resubmits"] >= 1
        # every client resolved; nobody touched the dead member
        assert report.stats["wave_completed"] == report.stats["wave_clients"]
        assert report.stats["router_routed_unmounted"] == 0
        assert report.stats["router_ryw_grants"] >= 1
        names = [r.name for r in report.invariants]
        assert "no_session_routed_to_unmounted_member" in names
        assert "ryw_waiters_admit_covering_or_expire" in names
