"""Tests for the obs statistics (percentiles, histograms, series) and the
plain-text rendering the benchmarks print."""

import pytest

from repro.obs import Histogram, Series
from repro.obs import registry as registry_module
from repro.obs.registry import _percentile_of_sorted
from repro.obs.render import render_figure, render_table, speedup


def percentile(values, q):
    return _percentile_of_sorted(sorted(values), q)


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5
        assert percentile([0, 10], 95) == 9.5

    def test_extremes(self):
        values = list(range(100))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 99

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 120)


class TestHistogram:
    def test_summary_triple(self):
        hist = Histogram("Q1")
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            hist.observe(v)
        stats = hist.stats()
        assert stats["p50"] == 3.0
        assert stats["mean"] == 22.0
        assert stats["p95"] > 4.0

    def test_summary_sorts_once_not_per_percentile(self, monkeypatch):
        hist = Histogram("Q1")
        for v in [5.0, 1.0, 3.0]:
            hist.observe(v)
        sort_calls = 0

        def counting(values):
            nonlocal sort_calls
            sort_calls += 1
            return sorted(values)

        monkeypatch.setattr(registry_module, "sorted", counting, raising=False)
        hist.stats()
        assert sort_calls == 1  # p50, p95 and p99 shared one sorted copy

    def test_empty_histogram_summary_triple_is_zeros(self):
        import math

        stats = Histogram("Q1").stats()
        triple = [stats["p50"], stats["mean"], stats["p95"]]
        assert triple == [0.0, 0.0, 0.0]
        assert not any(math.isnan(v) for v in triple)

    def test_record_invalidates_the_sorted_cache(self):
        # Histogram keeps no sorted cache (stats() sorts on every call);
        # the id is kept, and what it checks is that a read after
        # observe() sees the new sample.
        hist = Histogram("Q1")
        hist.observe(10.0)
        hist.observe(20.0)
        assert hist.stats()["p50"] == 15.0
        hist.observe(0.0)  # a later read must see it
        assert hist.stats()["p50"] == 10.0
        assert hist.stats()["p95"] == pytest.approx(19.0)


class TestSeries:
    def test_value_at_steps(self):
        series = Series("scn")
        series.record(0.0, 10)
        series.record(1.0, 20)
        series.record(2.0, 30)
        assert series.value_at(0.5) == 10
        assert series.value_at(1.0) == 20
        assert series.value_at(99.0) == 30


def _series(name, points):
    series = Series(name)
    for t, v in points:
        series.record(t, v)
    return series


class TestRender:
    def test_speedup(self):
        assert speedup(100.0, 1.0) == 100.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_render_table_alignment(self):
        text = render_table(
            ["name", "median (ms)"],
            [["Q1", 4.25], ["Q2", 104.5]],
            title="Table 2",
        )
        lines = text.splitlines()
        assert lines[0] == "Table 2"
        assert "name" in lines[1] and "median" in lines[1]
        assert len(lines) == 5
        assert len(set(len(l) for l in lines[1:])) <= 2  # aligned

    def test_render_figure_samples_series(self):
        series = {
            "pri_log1": _series(
                "pri_log1", [(float(t), t * 10.0) for t in range(100)]
            ),
            "std_apply": _series(
                "std_apply", [(float(t), t * 10.0 - 5) for t in range(100)]
            ),
        }
        text = render_figure(series, title="Fig 11", samples=5)
        assert "pri_log1" in text and "std_apply" in text
        assert text.count("\n") < 20  # sampled, not 100 rows

    def test_render_figure_empty(self):
        assert render_figure({}, title="x") == "x"
