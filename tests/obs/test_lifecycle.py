"""Tests for the redo-lifecycle tracer."""

from repro import obs
from repro.obs import STAGES, MetricsRegistry, RedoLifecycleTracer


class Clock:
    def __init__(self):
        self.now = 0.0


def make_tracer():
    clock = Clock()
    registry = MetricsRegistry()
    tracer = RedoLifecycleTracer(clock, registry)
    registry.tracer = tracer
    return clock, registry, tracer


class TestStamping:
    def test_full_pipeline_produces_all_stage_latencies(self):
        clock, registry, tracer = make_tracer()
        times = {}
        for i, stage in enumerate(STAGES):
            clock.now = float(i)
            times[stage] = clock.now
            if stage == "generated":
                tracer.record_generated(1, 10, 2)
            elif stage == "shipped":
                tracer.record_shipped(10, 2)
            elif stage == "received":
                tracer.record_received(10, 2)
            elif stage == "merged":
                tracer.record_merged(10)
            elif stage == "applied":
                tracer.record_applied(10)
                tracer.record_applied(10)  # both CVs
            elif stage == "mined":
                tracer.record_mined(10)
                tracer.record_mined(10)
            elif stage == "chopped":
                tracer.record_chopped(10)
            elif stage == "flushed":
                tracer.record_flushed(10)
            elif stage == "published":
                tracer.record_published(10)
        summary = tracer.stage_summary()
        for stage in STAGES[1:]:
            assert summary[stage]["count"] == 1, stage
            assert summary[stage]["mean"] == 1.0, stage  # each step took 1s
        assert tracer.visibility_lag.stats() == {
            "count": 1, "sum": 8.0, "min": 8.0, "max": 8.0,
            "mean": 8.0, "p50": 8.0, "p95": 8.0, "p99": 8.0,
        }
        assert tracer.completed_total.value == 1
        assert tracer.in_flight == 0

    def test_applied_waits_for_last_cv(self):
        clock, __, tracer = make_tracer()
        tracer.record_generated(1, 5, 3)
        clock.now = 1.0
        tracer.record_applied(5)
        tracer.record_applied(5)
        assert tracer.stage_summary()["applied"]["count"] == 0
        clock.now = 2.0
        tracer.record_applied(5)
        assert tracer.stage_summary()["applied"]["count"] == 1
        assert tracer.stage_summary()["applied"]["mean"] == 2.0

    def test_duplicate_stamps_first_wins(self):
        """MIRA multicasts every record to every instance: re-stamping an
        already-stamped stage must not skew the histogram."""
        clock, __, tracer = make_tracer()
        tracer.record_generated(1, 5, 1)
        clock.now = 1.0
        tracer.record_shipped(5, 1)
        clock.now = 9.0
        tracer.record_shipped(5, 1)  # second instance's copy
        stats = tracer.stage_summary()["shipped"]
        assert stats["count"] == 1
        assert stats["mean"] == 1.0

    def test_skipped_stages_measure_from_latest_stamped(self):
        """A record that skips mining (no DBIM) still gets a well-defined
        published latency: time since the latest earlier stamped stage."""
        clock, __, tracer = make_tracer()
        tracer.record_generated(1, 5, 1)
        clock.now = 2.0
        tracer.record_applied(5)
        clock.now = 5.0
        tracer.record_published(5)
        stats = tracer.stage_summary()["published"]
        assert stats["count"] == 1
        assert stats["mean"] == 3.0  # applied -> published, not generated ->

    def test_mid_pipeline_first_sighting_still_tracks(self):
        """Records first seen at ship/receive (FAL fetches, logs built
        before the tracer armed) are tracked from that stage on."""
        clock, __, tracer = make_tracer()
        clock.now = 1.0
        tracer.record_received(7, 1)
        clock.now = 4.0
        tracer.record_published(7)
        assert tracer.completed_total.value == 1
        assert tracer.visibility_lag.stats()["mean"] == 3.0

    def test_publication_covers_all_lower_scns(self):
        clock, __, tracer = make_tracer()
        for scn in (1, 2, 3, 4):
            tracer.record_generated(1, scn, 1)
        clock.now = 1.0
        tracer.record_published(3)
        assert tracer.completed_total.value == 3
        assert tracer.in_flight == 1
        tracer.record_published(10)
        assert tracer.completed_total.value == 4
        assert tracer.in_flight == 0

    def test_published_series_is_monotone(self):
        """MIRA publishes per instance; a late, lower publication must
        not regress the published-SCN series."""
        clock, __, tracer = make_tracer()
        tracer.record_published(10)
        tracer.record_published(7)
        tracer.record_published(12)
        assert [v for __, v in tracer.published_series.points] == [10, 12]


def gap_at(tracer, t, threads=(1, 2)):
    """Generated-vs-published SCN gap at ``t``, the max over ``threads``,
    read from the tracer's series (the pointwise Fig. 11 lag)."""
    generated = max(
        tracer.generated_series(thread).value_at(t)
        for thread in threads
        if tracer.generated_series(thread) is not None
    )
    return max(0.0, generated - tracer.published_series.value_at(t))


class TestFig11FromInstruments:
    def test_scn_gap_at_and_worst_gap(self):
        clock, __, tracer = make_tracer()
        # thread 1 generates scns 10, 20, 30 at t = 0, 1, 2
        for i, scn in enumerate((10, 20, 30)):
            clock.now = float(i)
            tracer.record_generated(1, scn, 1)
        # publications trail by one step
        clock.now = 1.0
        tracer.record_published(10)
        clock.now = 2.0
        tracer.record_published(20)
        clock.now = 3.0
        tracer.record_published(30)
        assert gap_at(tracer, 0.0) == 10.0  # generated 10, published 0
        assert gap_at(tracer, 1.0) == 10.0  # generated 20, published 10
        assert gap_at(tracer, 3.0) == 0.0
        assert tracer.worst_scn_gap() == 10.0
        assert tracer.worst_scn_gap(after=2.5) == 0.0

    def test_worst_gap_takes_max_over_threads(self):
        clock, __, tracer = make_tracer()
        tracer.record_generated(1, 10, 1)
        tracer.record_generated(2, 40, 1)
        clock.now = 1.0
        tracer.record_published(10)
        assert gap_at(tracer, 0.5) == 40.0
        assert gap_at(tracer, 0.5, threads=[1]) == 10.0
        assert tracer.generated_series(2).value_at(float("inf")) == 40
        assert tracer.generated_series(3) is None


class TestDeploymentIntegration:
    def test_deployment_under_collecting_traces_end_to_end(self):
        """A real (small) deployment built under a collecting registry
        arms the tracer automatically and stamps redo all the way to
        publication."""
        from repro.db import Deployment, InMemoryService
        from tests.db.conftest import load, simple_table_def, small_config

        registry = MetricsRegistry()
        with obs.collecting(registry):
            deployment = Deployment.build(config=small_config())
            deployment.create_table(simple_table_def())
            load(deployment)
            deployment.enable_inmemory("T", service=InMemoryService.BOTH)
            deployment.catch_up()

        assert deployment.obs is registry
        tracer = registry.tracer
        assert tracer is not None
        assert tracer.completed_total.value > 0
        # caught up: at most the trailing records generated after the
        # last QuerySCN publication are still awaiting coverage
        assert tracer.in_flight <= 5
        snapshot = registry.snapshot()
        assert snapshot.total("lifecycle.completed") > 0
        for stage in ("shipped", "received", "merged", "applied",
                      "published"):
            stats = snapshot.get(f"lifecycle.stage.{stage}")
            assert stats is not None and stats["count"] > 0, stage
        # pipeline counters landed in the same registry
        assert snapshot.total("dbim.commit_table.inserts") > 0
        assert snapshot.total("adg.queryscn.publications") > 0

    def test_deployment_built_outside_collecting_grows_no_sample_list(
        self, monkeypatch
    ):
        """Without a collecting registry every histogram and series a
        component declares records nothing: the pipeline runs and keeps
        only its plain counters."""
        from repro.db import Deployment, InMemoryService
        from repro.obs import Histogram, Series
        from tests.db.conftest import load, simple_table_def, small_config

        grown = []
        monkeypatch.setattr(
            Histogram, "observe", lambda self, v: grown.append(self.name)
        )
        monkeypatch.setattr(
            Series, "record", lambda self, t, v: grown.append(self.name)
        )
        deployment = Deployment.build(config=small_config())
        deployment.create_table(simple_table_def())
        load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        load(deployment, n=20, start=100)  # mined: T is in-memory now
        deployment.catch_up()

        assert deployment.obs is None
        standby = deployment.standby
        assert standby.coordinator.advancements > 0
        assert standby.miner.data_records_mined > 0
        assert grown == []
