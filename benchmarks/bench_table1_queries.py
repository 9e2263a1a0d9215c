"""Table 1: the sample analytic queries Q1 and Q2.

Regenerates the paper's Table 1 setup: both queries parse through the SQL
layer, run against the standby's IMCS (no analytic indexes exist, so full
scans are forced -- "raw performance of IMCS and the In-Memory Scan
Engine"), and the benchmark times Q1's live wall-clock execution.
"""

from __future__ import annotations

import pytest

from repro.db.deployment import InMemoryService
from repro.db.sql import parse_query
from repro.obs.render import render_table

from conftest import bench_oltap_config, run_scenario, save_report

Q1_SQL = "SELECT * FROM C101_6P1M_HASH WHERE n1 = :1"
Q2_SQL = "SELECT * FROM C101_6P1M_HASH WHERE c1 = :2"


@pytest.fixture(scope="module")
def scenario():
    config = bench_oltap_config(duration=0.5, pct_update=0.0, pct_scan=0.0)
    deployment, workload = run_scenario(
        config, service=InMemoryService.STANDBY
    )
    return deployment, workload


def test_table1_queries(scenario, benchmark):
    deployment, workload = scenario
    q1 = parse_query(Q1_SQL)
    q2 = parse_query(Q2_SQL)

    result1 = q1.run(deployment.standby, {1: 1234.0})
    result2 = q2.run(deployment.standby, {2: "s00017"})
    # both are forced to the IMCS: full columnar scans, no index path
    assert result1.stats.imcus_used >= 1
    assert result2.stats.imcus_used >= 1
    assert result1.stats.rowstore_rows == 0

    rows = [
        ["Q1", "scan, filter a numeric column", Q1_SQL,
         len(result1.rows), result1.stats.imcus_used],
        ["Q2", "scan, filter a varchar column", Q2_SQL,
         len(result2.rows), result2.stats.imcus_used],
    ]
    save_report(
        "table1_queries",
        render_table(
            ["ID", "Description", "SQL", "rows", "IMCUs scanned"],
            rows,
            title="Table 1: sample queries in the analytics workload "
                  "(executed on the standby IMCS)",
        ),
    )

    # wall-clock: live Q1 execution through the in-memory scan engine
    benchmark(lambda: q1.run(deployment.standby, {1: 1234.0}))
