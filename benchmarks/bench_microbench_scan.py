"""Microbenchmark: row-format vs columnar scan, real wall clock.

The harness's latency comparisons use the simulated cost model; this
microbenchmark backs the model's central ratio with *measured* wall-clock
time through the actual code paths: a row-at-a-time consistent-read scan
vs the vectorised In-Memory Scan Engine, on the same table, same snapshot,
same predicate.

Three configurations are timed:

* **clean** -- freshly populated IMCUs, no invalidations: pure columnar
  kernels (predicate masks, batch projection, storage-index pruning).
* **live-width invalidation** -- ~1.5% of the rows invalid at about two
  rows per touched block: what ``bench_e2e``'s ``scan_churn`` sustains
  between repopulations (2.1 fallback rows per block visit; ``oltap_mixed``
  1.5), i.e. the width the reconcile tail actually runs at.
* **heavy-invalidation** -- a mix of row-level and block-level SMU
  invalidations over ~1/3 of the table (~16 fallback rows per visited
  block): every scan reconciles the invalid rows through the row store in
  one Consistent Read pass per unit over the SMU's cached per-block
  grouping.  No live workload is this wide; it is the arm a change sized
  for the live width must not trade away.

The report gives the reconcile tail's cost per fallback row at both widths
(arm time minus the clean scan, over the arm's fallback rows) and their
ratio: per-block fixed cost shows as a ratio above 1.

The paper's "orders of magnitude" claim is hardware-specific; here we
assert a conservative >= 10x measured gap (typically 30-100x for this
table size), plus storage-index pruning being visibly cheaper still.
Machine-readable numbers land in ``benchmarks/results/BENCH_scan.json``
(see EXPERIMENTS.md for how to read them).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.db.deployment import InMemoryService
from repro.imcs.scan import Predicate
from repro.obs.render import render_table

from conftest import bench_oltap_config, run_scenario, save_json, save_report

#: Fractions of the table invalidated for the heavy configuration.
HEAVY_ROW_FRACTION = 0.25
HEAVY_BLOCK_FRACTION = 0.10
#: The live-width configuration: this share of the rows, this many per
#: touched block.
LIVE_ROW_FRACTION = 0.015
LIVE_ROWS_PER_BLOCK = 2

#: Wall-clock numbers measured at the commit *before* the vectorised
#: kernels landed (same harness, same machine class), kept so the JSON
#: report always carries the before/after comparison.
PRE_PR_BASELINE = {
    "clean_columnar_s": 0.0002467,
    "heavy_columnar_s": 0.0051898,
    "row_format_s": 0.0091295,
}

#: Results stashed by the clean test for the JSON report written by the
#: heavy test (tests run in definition order within the module).
_RESULTS: dict = {}


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


def test_columnar_vs_rowformat_wall_clock(scenario, benchmark):
    deployment, workload = scenario
    standby = deployment.standby
    table_name = workload.config.table_name
    table = standby.catalog.table(table_name)
    snapshot = standby.query_scn.value
    predicate = Predicate.eq("n1", 1234.0)
    prune_predicate = Predicate.eq("n1", 10_000_000.0)  # beyond every max

    def row_format():
        return [
            values
            for __, values in table.full_scan(snapshot, standby.txn_table)
            if predicate.eval_row(values, table.schema)
        ]

    def columnar():
        return standby.query(table_name, [predicate])

    def pruned():
        return standby.query(table_name, [prune_predicate])

    # same answers first
    assert sorted(r[0] for r in row_format()) == sorted(
        r[0] for r in columnar().rows
    )

    t_row = wall_time(row_format)
    t_col = wall_time(columnar)
    t_prune = wall_time(pruned)
    rows = [
        ["row-format CR scan", t_row * 1e3, 1.0],
        ["columnar scan", t_col * 1e3, t_row / t_col],
        ["columnar + storage-index prune", t_prune * 1e3, t_row / t_prune],
    ]
    save_report(
        "microbench_scan",
        render_table(
            ["path", "wall time (ms)", "speedup vs row-format"],
            rows,
            title=f"Scan path microbenchmark (measured wall clock, "
                  f"{workload.config.n_rows} rows x 101 columns)",
        ),
    )
    assert t_row / t_col >= 10, f"columnar only {t_row / t_col:.1f}x faster"
    assert t_prune <= t_col * 1.5  # pruning never slower than scanning

    n_rows = workload.config.n_rows
    _RESULTS["clean"] = {
        "row_format_s": t_row,
        "columnar_s": t_col,
        "pruned_s": t_prune,
        "speedup_vs_row_format": t_row / t_col,
        "rows_per_s": n_rows / t_col,
        "table_rows": n_rows,
    }

    benchmark(columnar)


def reconcile_width(segment) -> tuple[int, float]:
    """``(invalid rows, rows per block visit)`` as a scan will meet them,
    read from the SMUs' own per-block grouping."""
    groups = [
        slots
        for smu in segment.live_units()
        for slots in smu.invalid_slots_by_dba().values()
    ]
    rows = sum(map(len, groups))
    return rows, rows / max(1, len(groups))


def test_live_width_invalidation_scan(scenario, benchmark):
    """Reconcile at the width live traffic produces: few rows, about two
    per touched block.  The SMUs' validity is put back afterwards, so the
    heavy arm starts from the clean table it always did."""
    deployment, workload = scenario
    standby = deployment.standby
    table_name = workload.config.table_name
    table = standby.catalog.table(table_name)
    snapshot = standby.query_scn.value
    predicate = Predicate.eq("n1", 1234.0)
    object_id = table.default_partition.object_id
    segment = standby.imcs.segment(object_id)

    rng = random.Random(11)
    units = segment.live_units()
    before = [smu.snapshot_validity() for smu in units]
    for smu in units:
        imcu = smu.imcu
        n_blocks = max(
            1, round(imcu.n_rows * LIVE_ROW_FRACTION / LIVE_ROWS_PER_BLOCK)
        )
        for dba in rng.sample(list(imcu.covered_dbas), k=n_blocks):
            positions = imcu.positions_for_dba(dba).tolist()
            for position in rng.sample(positions, k=LIVE_ROWS_PER_BLOCK):
                standby.imcs.invalidate(
                    object_id, dba, (int(imcu.row_slots[position]),), snapshot
                )

    def sparse():
        return standby.query(table_name, [predicate])

    reference = [
        values
        for __, values in table.full_scan(snapshot, standby.txn_table)
        if predicate.eval_row(values, table.schema)
    ]
    got = sparse()
    assert sorted(r[0] for r in reference) == sorted(r[0] for r in got.rows)
    invalid_rows, rows_per_visit = reconcile_width(segment)
    assert got.stats.fallback_rows == invalid_rows > 0

    t_sparse = wall_time(sparse)
    _RESULTS["live_width"] = {
        "columnar_s": t_sparse,
        "rows_per_s": workload.config.n_rows / t_sparse,
        "invalid_rows_marked": invalid_rows,
        "fallback_rows_per_scan": got.stats.fallback_rows,
        "rows_per_block_visit": rows_per_visit,
        "table_rows": workload.config.n_rows,
    }
    benchmark(sparse)

    for smu, validity in zip(units, before):
        smu.restore_validity(*validity)
    assert sparse().stats.fallback_rows == 0


def test_heavy_invalidation_scan(scenario, benchmark):
    """Reconcile-dominated scan: ~1/3 of the table is SMU-invalid."""
    deployment, workload = scenario
    standby = deployment.standby
    table_name = workload.config.table_name
    table = standby.catalog.table(table_name)
    snapshot = standby.query_scn.value
    predicate = Predicate.eq("n1", 1234.0)
    object_id = table.default_partition.object_id
    segment = standby.imcs.segment(object_id)

    rng = random.Random(7)
    invalid_rows = 0
    invalid_blocks = 0
    for smu in segment.live_units():
        imcu = smu.imcu
        # row-level invalidations (each lands on the real SMU path)
        k = int(imcu.n_rows * HEAVY_ROW_FRACTION)
        for position in rng.sample(range(imcu.n_rows), k=k):
            rowid = imcu.rowids[position]
            standby.imcs.invalidate(
                object_id, rowid.dba, (rowid.slot,), snapshot
            )
        invalid_rows += k
        # block-level invalidations (expand through positions_for_dba)
        dbas = list(imcu.covered_dbas)
        n_blocks = max(1, int(len(dbas) * HEAVY_BLOCK_FRACTION))
        for dba in rng.sample(dbas, k=n_blocks):
            standby.imcs.invalidate(object_id, dba, (), snapshot)
        invalid_blocks += n_blocks

    def heavy():
        return standby.query(table_name, [predicate])

    # marking rows invalid must not change the answer (monotone fallback)
    reference = [
        values
        for __, values in table.full_scan(snapshot, standby.txn_table)
        if predicate.eval_row(values, table.schema)
    ]
    got = heavy()
    assert sorted(r[0] for r in reference) == sorted(r[0] for r in got.rows)
    assert got.stats.fallback_rows > 0  # the reconcile path really ran

    t_heavy = wall_time(heavy, repeats=10)
    n_rows = workload.config.n_rows
    clean = _RESULTS.get("clean", {})
    live = _RESULTS.get("live_width", {})
    __, heavy_rows_per_visit = reconcile_width(segment)

    def us_per_fallback_row(arm_s, fallback_rows):
        """The reconcile tail alone: arm minus the clean scan."""
        if not (clean.get("columnar_s") and fallback_rows):
            return None
        return (arm_s - clean["columnar_s"]) / fallback_rows * 1e6

    heavy_us = us_per_fallback_row(t_heavy, got.stats.fallback_rows)
    live_us = us_per_fallback_row(
        live.get("columnar_s"), live.get("fallback_rows_per_scan")
    )
    if live:
        live["us_per_fallback_row"] = live_us
    payload = {
        "bench": "microbench_scan",
        "table_rows": n_rows,
        "columns": 101,
        "configs": {
            "clean": clean,
            "live_width_invalidation": live,
            "heavy_invalidation": {
                "columnar_s": t_heavy,
                "rows_per_s": n_rows / t_heavy,
                "invalid_rows_marked": invalid_rows,
                "invalid_blocks_marked": invalid_blocks,
                "fallback_rows_per_scan": got.stats.fallback_rows,
                "rows_per_block_visit": heavy_rows_per_visit,
                "us_per_fallback_row": heavy_us,
                "table_rows": n_rows,
            },
        },
        "us_per_fallback_row_live_over_heavy": (
            live_us / heavy_us if live_us and heavy_us else None
        ),
        "pre_pr_baseline": PRE_PR_BASELINE,
    }
    baseline = PRE_PR_BASELINE
    if baseline.get("heavy_columnar_s"):
        payload["speedup_vs_pre_pr"] = {
            "heavy_invalidation": baseline["heavy_columnar_s"] / t_heavy,
            "clean": (
                baseline["clean_columnar_s"] / clean["columnar_s"]
                if clean.get("columnar_s")
                else None
            ),
        }
        if clean.get("row_format_s"):
            # The row-format CR scan is untouched by the kernel work, so
            # its same-run time is the per-machine yardstick: drift > 1
            # means the host is slower than when the baseline was taken,
            # and the raw ratios above understate the improvement.
            drift = clean["row_format_s"] / baseline["row_format_s"]
            payload["speedup_vs_pre_pr_normalized"] = {
                "machine_drift_row_format": drift,
                "heavy_invalidation": (
                    baseline["heavy_columnar_s"] / t_heavy * drift
                ),
                "clean": (
                    baseline["clean_columnar_s"] / clean["columnar_s"] * drift
                ),
            }
    save_json("scan", payload)
    save_report(
        "microbench_scan_heavy",
        render_table(
            ["configuration", "wall time (ms)", "rows/s", "fallback rows",
             "rows per block visit", "us per fallback row"],
            [
                ["clean columnar", clean.get("columnar_s", 0.0) * 1e3,
                 clean.get("rows_per_s", 0.0), 0, "-", "-"],
                ["live-width invalidation",
                 live.get("columnar_s", 0.0) * 1e3,
                 live.get("rows_per_s", 0.0),
                 live.get("fallback_rows_per_scan", 0),
                 live.get("rows_per_block_visit", 0.0), live_us or 0.0],
                ["heavy invalidation", t_heavy * 1e3, n_rows / t_heavy,
                 got.stats.fallback_rows, heavy_rows_per_visit,
                 heavy_us or 0.0],
            ],
            title=f"Scan configurations (heavy: {invalid_rows} invalid rows "
                  f"+ {invalid_blocks} invalid blocks of {n_rows} rows; "
                  f"live width: {live.get('invalid_rows_marked', 0)} invalid "
                  f"rows; us per fallback row live / heavy = "
                  f"{(live_us / heavy_us) if live_us and heavy_us else 0.0:.2f})",
        ),
    )

    benchmark(heavy)
