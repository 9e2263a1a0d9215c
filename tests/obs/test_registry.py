"""Tests for the metrics registry, instruments and snapshots."""

import json

import pytest

from repro import obs
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    Series,
)


class Component:
    """A pipeline component in miniature: plain counters reset by
    ``clear()``, declared once at construction."""

    def __init__(self, **labels):
        self.applied = 0
        self.depth = 0
        obs.bind(self, {"applied": "component.applied"}, **labels)
        obs.bind(self, {"depth": "component.depth"}, "gauge", **labels)

    def clear(self):
        self.applied = 0


class TestInstruments:
    def test_counter_inc_and_value_writable(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.value = 0
        assert c.value == 0
        c.inc(-2)  # retry compensation decrements are allowed
        assert c.value == -2

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        with obs.collecting(reg):
            comp = Component()
        comp.depth = 3
        comp.depth = 1.5
        assert reg.get("component.depth").value == 1.5
        assert reg.snapshot().get("component.depth")["kind"] == "gauge"

    def test_histogram_stats(self):
        h = Histogram("x")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        stats = h.stats()
        assert stats["count"] == 4
        assert stats["sum"] == 10.0
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["mean"] == 2.5
        assert stats["p50"] == 2.5

    def test_empty_histogram_stats_are_zeros(self):
        stats = Histogram("x").stats()
        assert stats["count"] == 0
        assert stats["mean"] == 0.0
        assert stats["p95"] == 0.0

    def test_series_step_interpolation(self):
        s = Series("x")
        s.record(1.0, 10)
        s.record(2.0, 20)
        assert s.value_at(0.5) == 0.0  # before the first point
        assert s.value_at(1.0) == 10
        assert s.value_at(1.7) == 10
        assert s.value_at(9.0) == 20
        assert s.last_value == 20

    def test_describe_renders_labels_sorted(self):
        h = Histogram("a.b", (("thread", "1"), ("worker", "2")))
        assert h.describe() == "a.b{thread=1,worker=2}"
        assert Histogram("a.b").describe() == "a.b"


class TestRegistry:
    def test_get_find_total(self):
        reg = MetricsRegistry()
        reg.counter("redo.x", thread=1).inc(3)
        reg.counter("redo.x", thread=2).inc(4)
        with obs.collecting(reg):
            comp = Component()
        comp.depth = 5
        assert reg.get("redo.x", thread=1).value == 3
        assert reg.get("redo.x") is None
        assert len(reg.find("redo.x")) == 2
        assert reg.total("redo.x") == 7
        assert reg.total("component.depth") == 5
        assert len(reg) == 4

    def test_duplicate_declaration_gets_auto_label(self):
        """Two components declaring the identical identity must not share
        one instrument -- the registry disambiguates deterministically."""
        reg = MetricsRegistry()
        a = reg.counter("dup")
        b = reg.counter("dup")
        c = reg.counter("dup")
        assert a is not b and b is not c
        a.inc(1)
        b.inc(2)
        c.inc(4)
        assert a.value == 1 and b.value == 2 and c.value == 4
        assert reg.total("dup") == 7
        labels = sorted(dict(i.labels).get("i", "") for i in reg.find("dup"))
        assert labels == ["", "1", "2"]

    def test_collecting_routes_module_helpers(self):
        reg = MetricsRegistry()
        with obs.collecting(reg):
            inner = obs.counter("in.ctx")
            hist = obs.histogram("in.hist")
        outer = obs.counter("out.ctx")
        outer_hist = obs.histogram("out.hist")
        outer_series = obs.series("out.series")
        for tally in (inner, outer):
            tally.inc()
        hist.observe(1.0)
        outer_hist.observe(1.0)
        outer_series.record(0.0, 1.0)
        assert reg.get("in.ctx").value == 1
        assert len(reg.get("in.hist")) == 1
        assert reg.get("out.ctx") is None
        # outside a registry a declaration records nothing at all
        for instrument in (outer, outer_hist, outer_series):
            assert not isinstance(instrument, (Counter, Histogram, Series))

    def test_collecting_nests_innermost_wins(self):
        outer_reg, inner_reg = MetricsRegistry(), MetricsRegistry()
        with obs.collecting(outer_reg):
            with obs.collecting(inner_reg):
                assert obs.current() is inner_reg
            assert obs.current() is outer_reg
        assert obs.current() is None

    def test_bound_attribute_reads_live_including_after_clear(self):
        reg = MetricsRegistry()
        with obs.collecting(reg):
            comp = Component(worker=3)
        comp.applied += 2
        before = reg.snapshot()
        comp.applied += 5
        assert before.get("component.applied", worker=3)["value"] == 2
        assert reg.snapshot().get("component.applied", worker=3)["value"] == 7
        comp.clear()
        assert reg.snapshot().get("component.applied", worker=3)["value"] == 0
        comp.applied += 1
        assert reg.total("component.applied") == 1

    def test_bind_misconfiguration_fails_loudly(self):
        reg = MetricsRegistry()
        comp = Component()
        with pytest.raises(AttributeError):
            reg.bind(comp, {"aplied": "component.applied"})
        with pytest.raises(ValueError, match="counter or gauge"):
            reg.bind(comp, {"applied": "component.applied"}, "histogram")
        assert len(reg) == 0

    def test_tracer_of(self):
        reg = MetricsRegistry()
        assert obs.tracer_of(None) is None
        assert obs.tracer_of(reg) is None
        tracer = obs.RedoLifecycleTracer(type("C", (), {"now": 0.0})(), reg)
        reg.tracer = tracer
        assert obs.tracer_of(reg) is tracer


class TestSnapshot:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("b.count", thread=2).inc(3)
        reg.counter("b.count", thread=1).inc(4)
        self.gauge_owner = type("Owner", (), {"value": 7})()
        reg.bind(self.gauge_owner, {"value": "a.gauge"}, "gauge")
        hist = reg.histogram("c.hist")
        hist.observe(1.0)
        hist.observe(3.0)
        series = reg.series("d.series")
        series.record(0.5, 10)
        series.record(1.5, 30)
        return reg

    def test_entries_sorted_and_typed(self):
        snap = self._registry().snapshot()
        names = [e["name"] for e in snap.entries]
        assert names == sorted(names)
        kinds = {e["name"]: e["kind"] for e in snap.entries}
        assert kinds["a.gauge"] == "gauge"
        assert kinds["b.count"] == "counter"
        assert kinds["c.hist"] == "histogram"
        assert kinds["d.series"] == "series"

    def test_get_find_total(self):
        snap = self._registry().snapshot()
        assert snap.get("b.count", thread=1)["value"] == 4
        assert snap.get("b.count", thread=3) is None
        assert snap.total("b.count") == 7
        assert len(snap.find("b.count")) == 2
        assert snap.get("c.hist")["mean"] == 2.0
        assert snap.get("d.series")["last"] == [1.5, 30]

    def test_snapshot_is_a_point_in_time_copy(self):
        reg = self._registry()
        snap = reg.snapshot()
        self.gauge_owner.value = 99
        assert snap.get("a.gauge")["value"] == 7
        assert reg.snapshot().get("a.gauge")["value"] == 99

    def test_json_roundtrip_and_determinism(self):
        reg = self._registry()
        a, b = reg.snapshot(), reg.snapshot()
        assert a.to_json() == b.to_json()
        payload = json.loads(a.to_json())
        assert payload == a.as_dict()
        assert len(payload["instruments"]) == len(reg)

    def test_to_text_mentions_every_instrument(self):
        text = self._registry().snapshot().to_text()
        for name in ("b.count", "a.gauge", "c.hist", "d.series"):
            assert name in text
        assert MetricsSnapshot([]).to_text() == "(empty snapshot)"


class TestTracerAutoDedup:
    def test_two_tracers_in_one_registry_do_not_collide(self):
        """Tracer histograms are declared per tracer; a second tracer in
        the same registry must get distinct instruments."""
        reg = MetricsRegistry()
        clock = type("C", (), {"now": 0.0})()
        a = obs.RedoLifecycleTracer(clock, reg)
        b = obs.RedoLifecycleTracer(clock, reg)
        assert a.visibility_lag is not b.visibility_lag
        assert len(reg.find("lifecycle.visibility_lag")) == 2

    def test_sample_every_validation(self):
        with pytest.raises(ValueError):
            obs.RedoLifecycleTracer(
                type("C", (), {"now": 0.0})(), sample_every=0
            )
