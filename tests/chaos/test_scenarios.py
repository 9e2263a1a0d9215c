"""Tests for the canned chaos scenarios.

The all-scenarios replay sweep lives in the CLI (``python -m tests.chaos
--scenario all``).  Here every scenario runs once per session at seed 7:
its rendered report must equal ``golden/<name>.txt`` byte for byte, and
the same run is checked for the behaviour it is supposed to provoke
(gaps healed, duplicates discarded, stalls retried).

A change that moves a report on purpose rewrites the files with::

    PYTHONPATH=src python -c "import pathlib; \\
    from tests.chaos.harness import run_scenario; \\
    from tests.chaos.scenarios import SCENARIOS, get_scenario; \\
    [pathlib.Path(f'tests/chaos/golden/{n}.txt').write_text( \\
        run_scenario(get_scenario(n), seed=7).to_text()) for n in SCENARIOS]"

and says in its description which lines moved and why.
"""

import functools
import pathlib

import pytest

from tests.chaos.harness import run_scenario
from tests.chaos.scenarios import SCENARIOS, get_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden"


@functools.cache
def report_of(name):
    """The one seed-7 run of ``name`` this session shares."""
    return run_scenario(get_scenario(name), seed=7)


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

    def test_every_scenario_has_a_golden_report(self):
        assert {p.stem for p in GOLDEN.glob("*.txt")} == set(SCENARIOS)

    def test_unknown_scenario_raises_with_roster(self):
        with pytest.raises(KeyError, match="baseline"):
            get_scenario("nope")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_matches_golden(name):
    report = report_of(name)
    assert report.passed, report.to_text()
    assert report.to_text() == (GOLDEN / f"{name}.txt").read_text()


class TestScenarioBehaviour:
    def test_fal_gap_storm_heals_gaps(self):
        report = report_of("fal_gap_storm")
        assert report.passed, report.to_text()
        assert report.stats["gaps_resolved"] >= 1
        assert report.stats["ship_records_dropped"] >= 1

    def test_dup_reorder_discards_redeliveries(self):
        report = report_of("dup_reorder")
        assert report.passed, report.to_text()
        assert report.stats["duplicates_discarded"] >= 1

    def test_shipping_outage_lag_grows_then_recovers(self):
        report = report_of("shipping_outage")
        assert report.passed, report.to_text()
        assert report.lag_peak > 20  # redo backed up during the outage
        assert report.lag_final < report.lag_peak  # and drained after

    def test_worker_crash_flush_recovers(self):
        report = report_of("worker_crash_flush")
        assert report.passed, report.to_text()
        assert report.stats["flush_chaos_stalls"] >= 1

    def test_publish_stall_retries_then_publishes(self):
        report = report_of("publish_stall")
        assert report.passed, report.to_text()
        assert report.stats["publish_stalls"] >= 1
        assert report.stats["publications"] > 0

    def test_restart_storm_bounces_and_stays_exact(self):
        report = report_of("restart_storm")
        assert report.passed, report.to_text()
        assert report.stats["standby_restarts"] == 3

    def test_rac_chaos_cluster_stays_consistent(self):
        report = report_of("rac_chaos")
        assert report.passed, report.to_text()

    def test_failover_mid_flush_preserves_committed_data(self):
        report = report_of("failover_mid_flush")
        assert report.passed, report.to_text()
        names = [r.name for r in report.invariants]
        assert "failover_preserves_committed_data" in names

    def test_standby_loss_mid_wave_drains_and_keeps_ryw(self):
        report = report_of("standby_loss_mid_wave")
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
