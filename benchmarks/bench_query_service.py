"""Perf smoke for the standby query service (morsel parallelism + cache).

Not a paper table -- a regression gate for the query-service layer:

* morsel-parallel speedup: the same full-table scan through a 4-worker
  pool must finish in at most half the simulated elapsed time of a
  1-worker pool (the morsel queue is the only difference);
* result cache: a cache hit must serve at least 5x faster than the cold
  morsel-parallel scan it memoised.

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
    """Simulated elapsed of one cold full scan through an n-worker pool."""
    service = deployment.start_query_service(
        n_workers=n_workers, enable_cache=False
    )
    try:
        handle = service.submit("BIG")
        assert not handle.cached
        ok = deployment.sched.run_until_condition(
            lambda: handle.done, max_time=600.0
        )
        assert ok, "scan never completed"
        return handle.result, handle.pending.elapsed
    finally:
        service.shutdown()


def test_query_service_speedup_and_cache(service_deployment, benchmark):
    deployment = service_deployment

    serial_result, serial_elapsed = timed_cold_scan(deployment, n_workers=1)
    parallel_result, parallel_elapsed = timed_cold_scan(
        deployment, n_workers=4
    )
    assert parallel_result.rows == serial_result.rows
    assert len(serial_result.rows) == N_ROWS
    speedup = serial_elapsed / parallel_elapsed

    # cache: cold store, then a hit at the same QuerySCN
    service = deployment.start_query_service(n_workers=4)
    try:
        cold, cached_first = service.scan("BIG")
        hit, cached_second = service.scan("BIG")
        assert not cached_first and cached_second
        assert hit.rows == cold.rows
        cold_cost = cold.stats.cost_seconds
        hit_cost = hit.stats.cost_seconds
    finally:
        service.shutdown()
    cache_speedup = cold_cost / hit_cost

    rows = [
        ["cold scan, 1 worker", f"{serial_elapsed * 1e3:.3f}"],
        ["cold scan, 4 workers", f"{parallel_elapsed * 1e3:.3f}"],
        ["morsel speedup", f"{speedup:.2f}x"],
        ["cache hit vs cold scan", f"{cache_speedup:.0f}x"],
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
            "cold_scan_cost_s": cold_cost,
            "cache_hit_cost_s": hit_cost,
            "cache_speedup": cache_speedup,
        },
    )

    assert speedup >= 2.0, f"4-worker speedup only {speedup:.2f}x"
    assert cache_speedup >= 5.0, f"cache hit only {cache_speedup:.1f}x faster"

    # wall-clock: time a live cache-hit round trip
    service = deployment.start_query_service(n_workers=4)
    try:
        service.scan("BIG")
        benchmark(lambda: service.scan("BIG"))
    finally:
        service.shutdown()
