"""Table 2: scan-only workload, Q1 on Primary vs Standby with DBIM on both.

Paper setup: "4000 ops/sec with 25% ad-hoc queries running full-table
scans (1000 scans/sec) and 75% fetch queries that access the index",
no DMLs; paper numbers: Primary 4.25/4.31/4.55 ms vs Standby
4.30/4.36/4.6 ms -- "the Primary and the Standby databases perform equally
well", so scans "can be seamlessly offloaded to the Standby, completely
transparent to the end-user".

Shape check: the two sides' medians/averages/p95s agree within 10%.
"""

from __future__ import annotations

import pytest

from repro.db.deployment import InMemoryService
from repro.imcs.scan import Predicate
from repro.obs.render import render_table

from conftest import bench_oltap_config, run_scenario, save_report, summary_rows


def scan_only_config():
    return bench_oltap_config(
        pct_update=0.0, pct_insert=0.0, pct_scan=0.25, duration=2.0
    )


@pytest.fixture(scope="module")
def primary_run():
    return run_scenario(
        scan_only_config(), service=InMemoryService.BOTH,
        scan_target="primary",
    )


@pytest.fixture(scope="module")
def standby_run():
    return run_scenario(
        scan_only_config(), service=InMemoryService.BOTH,
        scan_target="standby",
    )


def test_table2_scan_only_parity(primary_run, standby_run, benchmark):
    deployment_p, workload_p = primary_run
    deployment_s, workload_s = standby_run

    q1_primary = workload_p.query_driver.q1
    q1_standby = workload_s.query_driver.q1
    assert len(q1_primary) >= 10 and len(q1_standby) >= 10

    rows = [
        summary_rows("Primary", q1_primary),
        summary_rows("Standby", q1_standby),
    ]
    save_report(
        "table2_scan_only",
        render_table(
            ["database", "n", "median (ms)", "average (ms)", "p95 (ms)"],
            rows,
            title="Table 2: response time for Q1, scan-only workload "
                  "(25% full scans / 75% index fetch, no DML), DBIM on both",
        ),
    )

    # parity within 10% on every statistic (paper: 4.25 vs 4.30 ms etc.)
    for stat in ("p50", "mean", "p95"):
        a = q1_primary.stats()[stat]
        b = q1_standby.stats()[stat]
        assert abs(a - b) / max(a, b) < 0.10, f"{stat}: {a} vs {b}"

    # no DML: scans never fall back to the row store on either side
    table_name = workload_s.config.table_name
    result_p = deployment_p.primary.query(
        table_name, [Predicate.eq("n1", 7.0)]
    )
    result_s = deployment_s.standby.query(
        table_name, [Predicate.eq("n1", 7.0)]
    )
    assert result_p.stats.fallback_rows == 0
    assert result_s.stats.fallback_rows == 0
    assert sorted(result_p.rows) == sorted(result_s.rows)

    benchmark(
        lambda: deployment_s.standby.query(
            table_name, [Predicate.eq("n1", 7.0)]
        )
    )
