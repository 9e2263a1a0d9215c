"""Perf smoke for the standby query service's morsel parallelism.

Not a paper table -- a regression gate for the query-service layer: the
same full-table scan through a 4-worker pool must finish in at most half
the simulated elapsed time of a 1-worker pool (the morsel queue is the
only difference).

Writes ``benchmarks/results/BENCH_query_service.json`` for CI diffing.
"""

from __future__ import annotations

import pytest

from repro.db import ColumnDef, TableDef
from repro.db.deployment import Deployment, InMemoryService
from repro.obs.render import render_table

from conftest import bench_system_config, save_json, save_report

N_ROWS = 16_000


@pytest.fixture(scope="module")
def service_deployment():
    deployment = Deployment.build(config=bench_system_config())
    deployment.create_table(
        TableDef(
            "BIG",
            (
                ColumnDef.number("id", nullable=False),
                ColumnDef.number("n1"),
                ColumnDef.varchar("c1"),
            ),
            rows_per_block=100,
            indexes=("id",),
        )
    )
    txn = deployment.primary.begin()
    for i in range(N_ROWS):
        deployment.primary.insert(txn, "BIG", (i, float(i % 97), f"v{i % 11}"))
        if i % 2_000 == 1_999:  # bounded txn size
            deployment.primary.commit(txn)
            txn = deployment.primary.begin()
    deployment.primary.commit(txn)
    deployment.enable_inmemory("BIG", service=InMemoryService.STANDBY)
    deployment.catch_up()
    return deployment


def timed_cold_scan(deployment, n_workers):
    """Simulated elapsed of one cold full scan through n query workers."""
    service = deployment.start_query_service(n_workers=n_workers)
    try:
        pending = service.submit("BIG")
        ok = deployment.sched.run_until_condition(
            lambda: pending.done, max_time=600.0
        )
        assert ok, "scan never completed"
        return pending.result, pending.elapsed
    finally:
        service.shutdown()


def test_query_service_morsel_speedup(service_deployment, benchmark):
    deployment = service_deployment

    serial_result, serial_elapsed = timed_cold_scan(deployment, n_workers=1)
    parallel_result, parallel_elapsed = timed_cold_scan(
        deployment, n_workers=4
    )
    assert parallel_result.rows == serial_result.rows
    assert len(serial_result.rows) == N_ROWS
    speedup = serial_elapsed / parallel_elapsed

    rows = [
        ["cold scan, 1 worker", f"{serial_elapsed * 1e3:.3f}"],
        ["cold scan, 4 workers", f"{parallel_elapsed * 1e3:.3f}"],
        ["morsel speedup", f"{speedup:.2f}x"],
    ]
    save_report(
        "query_service",
        render_table(
            ["operation", "simulated elapsed (ms)"],
            rows,
            title=f"Standby query service: {N_ROWS} rows, full scan",
        ),
    )
    save_json(
        "query_service",
        {
            "n_rows": N_ROWS,
            "serial_elapsed_s": serial_elapsed,
            "parallel_elapsed_s": parallel_elapsed,
            "morsel_speedup": speedup,
        },
    )

    assert speedup >= 2.0, f"4-worker speedup only {speedup:.2f}x"

    # wall-clock: time one 4-worker scan, submit to merged result
    service = deployment.start_query_service(n_workers=4)
    try:
        benchmark(lambda: service.scan("BIG"))
    finally:
        service.shutdown()
