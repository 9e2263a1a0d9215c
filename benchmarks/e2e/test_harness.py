"""Self-tests of the bench_e2e harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (outside
tier-1's ``testpaths``).  They test the measuring instrument, not the
system: span arithmetic, the percentile rule, that tracing does not
perturb the simulation, that the layer table sums to the timed wall, that
the gate can fail, and that the command emits exactly the metrics
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import time

import pytest

from . import cli, harness, report, stats, trace
from .calibrate import CAL_REF_S, Kernel, Meter
from .check import PrimaryRead
from .loadgen import QueryClient
from .workloads import WORKLOADS

QUICK = {w.name: w.scaled(0.1) for w in WORKLOADS}


@pytest.fixture(scope="module")
def kernel() -> Kernel:
    return Kernel()


def test_self_time_subtracts_direct_children_only():
    # root 0..10 holds a (1..4) and b (5..9); b holds c (6..8); the last
    # field is the calibrated duration, here at a factor of 1
    spans = [
        ["sim.scheduler:run", 0.0, 10.0, -1, 0, 10.0],
        ["adg.apply:worker.step", 1.0, 4.0, 0, 0, 3.0],
        ["adg.coordinator:coordinator.step", 5.0, 9.0, 0, 0, 4.0],
        ["dbim_adg.flush:begin_advance", 6.0, 8.0, 2, 0, 2.0],
    ]
    assert trace.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    table = trace.layer_table(spans)
    assert table["adg.coordinator"] == {"busy_s": 2.0, "calls": 1}
    assert table["sim.scheduler"]["busy_s"] == 3.0
    assert sum(row["busy_s"] for row in table.values()) == 10.0
    assert trace.root_s(spans) == 10.0


def test_tracer_nests_wrapped_calls_under_harness_spans():
    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    layer, tracer = Layer(), trace.Tracer()
    tracer.wrap(layer, "inner", "b:inner")
    tracer.wrap(layer, "outer", "a:outer")
    assert layer.outer() == 2 and tracer.spans == []  # inactive: transparent
    tracer.active = True
    with tracer.span("root:r"):
        assert layer.outer() == 2
        with tracer.paused():
            layer.inner()
    names_parents = [(s[trace.NAME], s[trace.PARENT]) for s in tracer.spans]
    assert names_parents == [("root:r", -1), ("a:outer", 0), ("b:inner", 1)]
    assert all(s[trace.END] >= s[trace.START] for s in tracer.spans)


def test_spans_are_calibrated_by_the_kernel_samples_beside_them():
    class SlowingKernel:  # every sample takes twice as long as the last
        cpu_s = CAL_REF_S / 2

        def run(self) -> float:
            self.cpu_s *= 2
            return self.cpu_s

    meter, tracer = Meter(SlowingKernel()), trace.Tracer()
    tracer.active = True
    for _ in range(2):
        meter.calibrate()
        with meter.timed("dml"), tracer.span("sim.scheduler:run"):
            with tracer.span("adg.apply:worker.step"):
                sum(range(20_000))
    meter.calibrate()
    tracer.calibrate(meter.factor_at)
    # samples of 1, 2 and 4 reference units: factors 1/1.5, then 1/3
    for span, factor in zip(tracer.spans, (1 / 1.5, 1 / 1.5, 1 / 3, 1 / 3)):
        cpu_s = span[trace.END] - span[trace.START]
        assert cpu_s > 0
        assert span[trace.CAL_S] == pytest.approx(cpu_s * factor)
    entries = meter.calibrated()["dml"]
    roots = [s[trace.CAL_S] for s in tracer.spans if s[trace.PARENT] < 0]
    assert roots == pytest.approx(entries, rel=0.05)


def test_three_repeats_check_the_invariant_at_21_distinct_slices():
    for workload in WORKLOADS:
        main = workload.stages[0]
        sampled = [
            set(harness.check_slices(main.slices, run_id))
            for run_id in range(3)
        ]
        assert all(len(slices) >= 7 for slices in sampled)
        assert len(set.union(*sampled)) == sum(map(len, sampled)) >= 21


def test_metric_names_say_which_metrics_are_exact():
    spec = report.load_spec()
    assert [
        m["name"] for m in spec["end_to_end"]
        if not report.is_measured(m["name"])
    ] == [
        "visibility_lag_sim_ms_p50", "visibility_lag_sim_ms_p90",
        "redo_gap_scns_p90", "imcs_bytes_per_row",
    ]
    measured_units = {
        m["unit"] for m in spec["per_layer"] if report.is_measured(m["name"])
    }
    assert measured_units == {"s", "ms", "1/s", "ratio", "%"}
    assert all(
        report.is_measured(m["name"]) for m in spec["per_layer"]
        if m["unit"] in ("s", "1/s", "%")
    )


@pytest.mark.parametrize(
    "n_samples, expected",
    [(99, 50.0), (100, 90.0), (160, 90.0), (200, 95.0), (1000, 99.0),
     (10_000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n_samples, expected):
    assert stats.highest_supported_percentile(n_samples) == expected


def test_percentile_and_visibility_lag():
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert stats.percentile([1.0], 90) == 1.0
    history = [(0.010, 5), (0.020, 9), (0.030, 12)]
    commits = [(0.001, 5), (0.012, 6), (0.015, 12)]
    lags = stats.visibility_lags(commits, history)
    assert lags == pytest.approx([0.009, 0.008, 0.015])
    with pytest.raises(ValueError):
        stats.visibility_lags([(0.0, 13)], history)


@pytest.mark.parametrize("name", ["oltap_mixed", "scan_churn"])
def test_tracing_does_not_perturb_the_simulation(name, kernel):
    plain = harness.run_repeat(QUICK[name], 7, kernel, traced=False, run_id=0)
    traced = harness.run_repeat(QUICK[name], 7, kernel, traced=True, run_id=1)
    assert plain.failed == traced.failed == 0
    # same QuerySCN history (its CRC is in ``exact``), lags, gaps, counts
    assert report.disagreements([plain, traced]) == []
    assert plain.spans == [] and traced.spans


def test_layer_table_sums_to_timed_wall(kernel):
    repeat = harness.run_repeat(
        QUICK["oltap_mixed"], 7, kernel, traced=True, run_id=0
    )
    rows = report.layer_rows(repeat)
    busy = sum(rows[f"{layer}.busy_s"] for layer in report.SPAN_LAYERS)
    wall = trace.root_s(repeat.spans)
    assert busy + rows["sim.scheduler.residue_s"] == pytest.approx(wall)
    shares = sum(rows[f"{layer}.busy_share"] for layer in report.SPAN_LAYERS)
    assert shares + rows["sim.scheduler.residue_share"] == pytest.approx(1.0)
    assert rows["imcs.population.busy_share"] > 0.3
    named = {m["name"] for m in report.load_spec()["per_layer"]}
    assert set(rows) | {"obs.trace_overhead_pct"} == named


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace_flag, section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_mode_emits_exactly_the_named_metrics(trace_flag, section, capsys):
    code = cli.main([
        "--workload", "ingest_firehose", "--quick", "--seed", "3",
        "--trace", str(trace_flag),
    ])
    result = _last_json(capsys)
    spec = report.load_spec()
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for metric in spec[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    spec = report.load_spec()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]


@pytest.mark.parametrize("name", ["oltap_mixed", "scan_churn"])
def test_reference_filters_like_the_primarys_own_scan(name, kernel):
    workload = QUICK[name]
    meter = Meter(kernel)
    meter.calibrate()
    deployment, _ = harness.set_up(workload, 7, meter, trace.Tracer())
    primary = deployment.primary
    scn = deployment.standby.query_scn.value
    read = PrimaryRead(primary, workload.table.name, scn)
    table = primary.catalog.table(workload.table.name)
    client = QueryClient(workload.table, 11)
    for query in client.round() + client.round():
        if query.aggregates:
            answer, _ = query.run(deployment.standby)
        else:
            answer = primary.scan_engine.scan(
                table, scn, list(query.predicates),
                list(query.columns) if query.columns else None,
            ).rows
            assert not read.matches(query, answer + [()])  # a row too many
        assert read.matches(query, answer)


def test_golden_mismatch_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(harness.PrimaryRead, "matches", lambda *args: False)
    code = cli.main(["--workload", "scan_static", "--quick"])
    result = _last_json(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_quick_smoke_of_all_four_workloads(capsys):
    started = time.perf_counter()
    assert cli.main(["--quick"]) == 0
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    for workload in WORKLOADS:
        assert f"{workload.name:16s} failure_rate = 0/" in out
    assert elapsed < 20.0
