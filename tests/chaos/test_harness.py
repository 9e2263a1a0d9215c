"""Tests for the chaos harness and its byte-stable reports."""

from repro.chaos.harness import ChaosHarness, ScenarioReport, run_scenario
from repro.chaos.invariants import InvariantResult
from repro.chaos.plan import ChaosEvent
from repro.chaos.scenarios import get_scenario
from repro.obs import Series


def make_report(passed=True, fired=2):
    events = [ChaosEvent(0.5, "arm", "Drop(redo.ship, count=1)")]
    events += [
        ChaosEvent(0.6 + i / 10, "fire", f"Drop -> drop at redo.ship[ship]")
        for i in range(fired)
    ]
    lag = Series("lag")
    lag.record(0.0, 0.0)
    lag.record(0.5, 40.0)
    lag.record(1.0, 3.0)
    return ScenarioReport(
        scenario="unit",
        description="synthetic",
        seed=7,
        plan=["t=0.5: Drop(redo.ship, count=1)"],
        events=events,
        invariants=[
            InvariantResult("golden", passed, "detail"),
            InvariantResult("monotonic", True, "ok"),
        ],
        stats={"b_stat": 2, "a_stat": 1},
        lag=lag,
        finished_at=1.25,
    )


class TestScenarioReport:
    def test_passed_requires_every_invariant(self):
        assert make_report(passed=True).passed
        assert not make_report(passed=False).passed

    def test_faults_fired_counts_fire_events(self):
        assert make_report(fired=3).faults_fired == 3

    def test_to_text_is_deterministic_and_sorted(self):
        a, b = make_report(), make_report()
        assert a.to_text() == b.to_text()
        text = a.to_text()
        # stats render in sorted key order regardless of insertion order
        assert text.index("a_stat = 1") < text.index("b_stat = 2")
        assert "verdict: PASS (3 fault events fired)" not in text
        assert "verdict: PASS (2 fault events fired)" in text
        assert "peak 40 SCNs" in text

    def test_failed_report_renders_fail(self):
        text = make_report(passed=False).to_text()
        assert "FAIL  golden" in text
        assert "verdict: FAIL" in text

    def test_metrics_section_only_rendered_when_present(self):
        from repro.obs import MetricsRegistry

        bare = make_report()
        assert bare.metrics is None
        assert "metrics:" not in bare.to_text()
        registry = MetricsRegistry()
        registry.counter("lifecycle.tracked").inc(10)
        registry.counter("lifecycle.completed").inc(9)
        report = make_report()
        report.metrics = registry.snapshot()
        assert "metrics: 2 instruments, 9/10 redo records traced to" \
            in report.to_text()


class TestHarnessRun:
    def test_baseline_run_passes_and_replays_identically(self):
        first = ChaosHarness(get_scenario("baseline"), seed=11).run()
        again = ChaosHarness(get_scenario("baseline"), seed=11).run()
        assert first.passed
        assert first.faults_fired == 0
        assert first.to_text() == again.to_text()  # byte-identical
        assert len(first.lag) > 10  # the sampler ran
        assert first.stats["advancements"] > 0

    def test_run_collects_metrics_with_lifecycle_histograms(self):
        """Every harness run snapshots a collecting registry: pipeline
        counters plus non-zero redo-lifecycle stage histograms."""
        report = ChaosHarness(get_scenario("baseline"), seed=11).run()
        snapshot = report.metrics
        assert snapshot is not None
        assert snapshot.total("lifecycle.completed") > 0
        for stage in ("shipped", "received", "merged", "applied",
                      "published"):
            entry = snapshot.get(f"lifecycle.stage.{stage}")
            assert entry is not None and entry["count"] > 0, stage
        lag = snapshot.get("lifecycle.visibility_lag")
        assert lag is not None and lag["count"] > 0 and lag["mean"] > 0
        # the converted ad-hoc counters land in the same snapshot
        assert snapshot.total("adg.coordinator.advancements") > 0
        assert snapshot.total("adg.queryscn.publications") > 0

    def test_run_scenario_convenience(self):
        report = run_scenario(get_scenario("baseline"), seed=3)
        assert report.scenario == "baseline"
        assert report.seed == 3
        assert report.passed

    def test_different_seeds_differ(self):
        a = ChaosHarness(get_scenario("shipping_outage"), seed=1).run()
        b = ChaosHarness(get_scenario("shipping_outage"), seed=2).run()
        assert a.passed and b.passed
        assert a.to_text() != b.to_text()  # seed changes the run
