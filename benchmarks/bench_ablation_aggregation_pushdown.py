"""Ablation: aggregation push-down vs materialise-then-fold (section V).

"Novel formats and techniques used by DBIM like in-memory storage indexes,
aggregation push-down are extended seamlessly to ADG."

Both paths answer identically; push-down folds COUNT/SUM/MIN/MAX inside
the columnar scan (numpy reductions over valid positions) instead of
materialising matching tuples first.  We measure real wall clock for both
on the same standby.
"""

from __future__ import annotations

import time

import pytest

from repro.db.deployment import InMemoryService
from repro.imcs import AggregateSpec, Predicate
from repro.obs.render import render_table

from conftest import bench_oltap_config, run_scenario, save_report


@pytest.fixture(scope="module")
def scenario():
    config = bench_oltap_config(duration=0.5, pct_update=0.0, pct_scan=0.0)
    return run_scenario(config, service=InMemoryService.STANDBY)


def wall_time(fn, repeats=15) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_aggregation_pushdown(scenario, benchmark):
    deployment, workload = scenario
    standby = deployment.standby
    table_name = workload.config.table_name
    predicate = Predicate.ge("n1", 5000.0)
    specs = [
        AggregateSpec("count"),
        AggregateSpec("sum", "n1"),
        AggregateSpec("avg", "n1"),
        AggregateSpec("max", "n1"),
    ]

    def pushed():
        return standby.aggregate(table_name, specs, [predicate])

    def materialised():
        result = standby.query(table_name, [predicate], columns=["n1"])
        values = [r[0] for r in result.rows if r[0] is not None]
        return [
            len(result.rows),
            sum(values) if values else None,
            sum(values) / len(values) if values else None,
            max(values) if values else None,
        ]

    # identical answers
    pushed_result = pushed()
    assert pushed_result.values == materialised()
    assert pushed_result.pushed_down_rows > 0

    t_pushed = wall_time(pushed)
    t_materialised = wall_time(materialised)
    save_report(
        "ablation_aggregation_pushdown",
        render_table(
            ["path", "wall time (ms)", "speedup"],
            [
                ["materialise rows, fold in Python",
                 t_materialised * 1e3, 1.0],
                ["push-down into the columnar scan",
                 t_pushed * 1e3, t_materialised / t_pushed],
            ],
            title="Ablation: aggregation push-down vs materialise-then-fold "
                  f"({workload.config.n_rows} rows)",
        ),
    )
    # push-down must not lose to materialisation (typically wins clearly)
    assert t_pushed <= t_materialised * 1.1

    benchmark(pushed)
