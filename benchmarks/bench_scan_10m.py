"""10M-row scan gauntlet: encoded-domain kernels at scale, real wall clock.

The smaller ``bench_microbench_scan`` proves the columnar-vs-row-format
ratio; this gauntlet proves the *encoded-domain* kernels hold up at the
paper's data sizes (§VI runs 6M rows).  Ten synthetic 1M-row IMCUs --
built straight from numpy buffers via the ``from_arrays``/``from_codes``
constructors -- are registered next to a real 20k-row
part (loaded through redo apply, so the reconcile path has genuine
row-store blocks behind it).  Four configurations are timed:

* **clean_scan** -- ~2% selective range over 10M rows projecting all
  four columns.  Also re-run under *naive* kernels (per-row ``take``,
  per-value aggregate folds) monkeypatched over the same data: the
  honest same-machine baseline.  Gate: >= 2x and an absolute rows/s
  floor for CI.
* **selective_eq** -- equality on the long-run ``c2`` column matching a
  handful of its runs: one code compare over the int32 code vector.
* **encoded_aggregate** -- COUNT/SUM/MIN/MAX folded from the float
  vector and the dictionary codes without decoding, checked against
  numpy ground truth.
* **reconcile_heavy** -- a quarter of the real part SMU-invalidated;
  the scan answer must not change (monotone fallback).  Timed cold: the
  invalidated units' tail images are discarded (an epoch bump, so their
  masks recompute too) before each repeat, or every repeat at the one
  snapshot would answer from them.

Machine-readable numbers land in ``benchmarks/results/BENCH_scan_10m.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs.aggregate import AggregateSpec
from repro.imcs.compression import (
    NULL_CODE,
    DictionaryCU,
    NumericCU,
    _sorted_code_for,
)
from repro.imcs.imcu import IMCU
from repro.imcs.scan import Predicate
from repro.obs.render import render_table

from conftest import save_json, save_report

N_UNITS = 10
ROWS_PER_UNIT = 1_000_000
REAL_ROWS = 20_000
TOTAL_ROWS = N_UNITS * ROWS_PER_UNIT + REAL_ROWS

C1_DICT = [f"s{i:04d}" for i in range(1000)]
STATUSES = sorted(
    ["ACTIVE", "ARCHIVED", "COLD", "HOT", "PENDING", "SEALED", "WARM", "Z-RARE"]
)

#: CI regression gate: clean-scan throughput must never drop below this.
#: Conservative -- the optimized kernels measure an order of magnitude
#: above it on a developer laptop; pre-PR per-row kernels sit below it.
CLEAN_SCAN_ROWS_PER_S_FLOOR = 2_000_000

#: Results stashed across tests; the last test writes the JSON report.
_RESULTS: dict = {}


# ----------------------------------------------------------------------
# fixture: 20k real rows + 10 synthetic 1M-row units
# ----------------------------------------------------------------------
def _synthetic_unit(object_id, snapshot_scn, unit_index: int) -> IMCU:
    rng = np.random.default_rng(1000 + unit_index)
    n = ROWS_PER_UNIT
    ids = 1e9 + unit_index * n + np.arange(n, dtype=np.float64)
    n1 = 1e9 + rng.uniform(0.0, 1000.0, n)
    c1_codes = rng.integers(0, len(C1_DICT), n, dtype=np.int32)
    c1_codes[rng.random(n) < 0.001] = NULL_CODE
    # ~500 runs of ~2000 rows; a few NULL runs and a few Z-RARE runs
    starts = np.sort(rng.choice(np.arange(1, n), size=499, replace=False))
    starts = np.concatenate(([0], starts)).astype(np.int64)
    run_codes = rng.integers(
        0, len(STATUSES) - 1, starts.size, dtype=np.int32
    )
    run_codes[rng.random(starts.size) < 0.01] = NULL_CODE
    rare = STATUSES.index("Z-RARE")
    run_codes[rng.choice(starts.size, size=3, replace=False)] = rare
    columns = {
        "id": NumericCU.from_arrays(ids, is_int=np.ones(n, dtype=bool)),
        "n1": NumericCU.from_arrays(n1),
        "c1": DictionaryCU.from_codes(c1_codes, C1_DICT),
        "c2": DictionaryCU.from_codes(
            np.repeat(run_codes, np.diff(np.append(starts, n))), STATUSES
        ),
    }
    return IMCU(object_id, 0, snapshot_scn, {}, columns, n_rows=n)


@pytest.fixture(scope="module")
def gauntlet():
    config = SystemConfig(
        imcs=IMCSConfig(imcu_target_rows=2048, population_workers=2),
        apply=ApplyConfig(n_workers=4),
    )
    deployment = Deployment.build(config=config)
    deployment.create_table(TableDef(
        "G",
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("n1"),
            ColumnDef.varchar("c1"),
            ColumnDef.varchar("c2"),
        ),
        rows_per_block=100,
    ))
    txn = deployment.primary.begin()
    rowids = []
    for i in range(REAL_ROWS):
        rowids.append(deployment.primary.insert(
            txn, "G", (i, i * 1.0, f"v{i % 5}", "LIVE")
        ))
    deployment.primary.commit(txn)
    deployment.catch_up()
    deployment.enable_inmemory("G", service=InMemoryService.BOTH)
    deployment.catch_up()

    standby = deployment.standby
    table = standby.catalog.table("G")
    object_id = table.default_partition.object_id
    snapshot = standby.query_scn.value
    for u in range(N_UNITS):
        standby.imcs.register_unit(
            _synthetic_unit(object_id, snapshot, u)
        )
    return deployment, rowids


def wall_time(fn, repeats: int = 3, before=None) -> float:
    best = float("inf")
    for __ in range(repeats):
        if before is not None:
            before()  # untimed
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# naive (row-at-a-time) kernels, monkeypatched over the same data
# ----------------------------------------------------------------------
def _naive_dict_take(self, positions):
    codes = self._codes
    dictionary = self._dictionary
    return [
        None if codes[p] == NULL_CODE else dictionary[codes[p]]
        for p in positions
    ]


def _naive_stats(self, positions):
    """COUNT/SUM/MIN/MAX folded over one decoded value at a time."""
    count, total, minimum, maximum = 0, 0.0, None, None
    for value in self.take(positions):
        if value is None:
            continue
        count += 1
        if isinstance(value, (int, float)):
            total += value
        if minimum is None or value < minimum:
            minimum = value
        if maximum is None or value > maximum:
            maximum = value
    return count, total, minimum, maximum


def _naive_numeric_take(self, positions):
    out = []
    for p in positions:
        if self._nulls[p]:
            out.append(None)
        elif self._is_int[p]:
            out.append(int(self._data[p]))
        else:
            out.append(float(self._data[p]))
    return out


_NAIVE = {
    (DictionaryCU, "take"): _naive_dict_take,
    (DictionaryCU, "stats_for_positions"): _naive_stats,
    (NumericCU, "take"): _naive_numeric_take,
    (NumericCU, "stats_for_positions"): _naive_stats,
}


class naive_kernels:
    """Context manager swapping in the decode-then-evaluate kernels."""

    def __enter__(self):
        self._saved = {
            (cls, attr): getattr(cls, attr) for cls, attr in _NAIVE
        }
        for (cls, attr), fn in _NAIVE.items():
            setattr(cls, attr, fn)
        return self

    def __exit__(self, *exc):
        for (cls, attr), original in self._saved.items():
            setattr(cls, attr, original)
        return False


# ----------------------------------------------------------------------
# configurations
# ----------------------------------------------------------------------
def test_clean_scan_vs_naive_kernels(gauntlet, benchmark):
    """2% selective scan projecting all columns, optimized vs naive."""
    deployment, __ = gauntlet
    standby = deployment.standby
    predicates = [Predicate.between("n1", 1e9, 1e9 + 20.0)]

    def clean():
        return standby.query("G", predicates)

    optimized = clean()
    assert optimized.stats.imcs_rows >= N_UNITS * ROWS_PER_UNIT
    t_opt = wall_time(clean)

    with naive_kernels():
        naive = clean()
        assert naive.rows == optimized.rows  # equal results, same data
        t_naive = wall_time(clean, repeats=2)

    speedup = t_naive / t_opt
    rows_per_s = TOTAL_ROWS / t_opt
    _RESULTS["clean_scan"] = {
        "optimized_s": t_opt,
        "naive_s": t_naive,
        "speedup_vs_naive": speedup,
        "rows_per_s": rows_per_s,
        "matching_rows": len(optimized.rows),
    }
    assert speedup >= 2.0, f"encoded-domain kernels only {speedup:.2f}x"
    assert rows_per_s >= CLEAN_SCAN_ROWS_PER_S_FLOOR, (
        f"clean scan regressed to {rows_per_s:,.0f} rows/s"
    )
    benchmark(clean)


def test_selective_eq(gauntlet):
    """Equality on the long-run column: one code compare per unit."""
    deployment, __ = gauntlet
    standby = deployment.standby
    predicates = [Predicate.eq("c2", "Z-RARE")]

    def selective():
        return standby.query("G", predicates, ["id"])

    result = selective()
    # ground truth from the code vectors themselves
    expected = 0
    for smu in standby.imcs.segment(
        standby.catalog.table("G").default_partition.object_id
    ).live_units():
        cu = smu.imcu.column("c2")
        rare = _sorted_code_for(cu._dictionary, "Z-RARE")
        if rare is not None:
            expected += int(np.count_nonzero(cu._codes == rare))
    assert len(result.rows) == expected
    t = wall_time(selective)
    _RESULTS["selective_eq"] = {
        "wall_s": t,
        "rows_per_s": TOTAL_ROWS / t,
        "matching_rows": len(result.rows),
    }


def test_encoded_domain_aggregate(gauntlet):
    """COUNT/SUM/MIN/MAX folded from floats and codes, no decode."""
    deployment, __ = gauntlet
    standby = deployment.standby
    predicates = [Predicate.between("n1", 1e9, 1e9 + 500.0)]
    specs = [
        AggregateSpec("count"),
        AggregateSpec("sum", "n1"),
        AggregateSpec("min", "n1"),
        AggregateSpec("max", "n1"),
        AggregateSpec("min", "c1"),
        AggregateSpec("max", "c2"),
    ]

    def aggregate():
        return standby.aggregate("G", specs, predicates)

    result = aggregate()
    # numpy ground truth over the synthetic buffers (no real row has
    # n1 >= 1e9, so the predicate isolates the synthetic units);
    # n1 is each unit's first draw from its seeded generator, so the
    # reference regenerates it exactly as _synthetic_unit did
    count = 0
    total = 0.0
    n1_min = np.inf
    n1_max = -np.inf
    for u in range(N_UNITS):
        rng = np.random.default_rng(1000 + u)
        n1 = 1e9 + rng.uniform(0.0, 1000.0, ROWS_PER_UNIT)
        match = n1 <= 1e9 + 500.0
        count += int(match.sum())
        total += float(n1[match].sum())
        n1_min = min(n1_min, float(n1[match].min()))
        n1_max = max(n1_max, float(n1[match].max()))
    values = dict(zip(
        ["count", "sum_n1", "min_n1", "max_n1", "min_c1", "max_c2"],
        result.values,
    ))
    assert values["count"] == count
    assert values["sum_n1"] == pytest.approx(total, rel=1e-9)
    assert values["min_n1"] == pytest.approx(n1_min)
    assert values["max_n1"] == pytest.approx(n1_max)
    assert values["min_c1"] == "s0000"
    assert values["max_c2"] in STATUSES
    assert result.pushed_down_rows == count

    t = wall_time(aggregate)
    _RESULTS["encoded_aggregate"] = {
        "wall_s": t,
        "rows_per_s": TOTAL_ROWS / t,
        "matching_rows": count,
    }


def test_reconcile_heavy(gauntlet):
    """Quarter of the real part invalidated: answers must not change."""
    deployment, rowids = gauntlet
    standby = deployment.standby
    table = standby.catalog.table("G")
    object_id = table.default_partition.object_id
    snapshot = standby.query_scn.value
    predicates = [Predicate.between("n1", 0.0, 100.0)]  # real rows only

    def scan():
        return standby.query("G", predicates)

    before = scan()
    for i in range(0, REAL_ROWS, 4):
        rowid = rowids[i]
        standby.imcs.invalidate(
            object_id, rowid.dba, (rowid.slot,), snapshot
        )
    after = scan()
    # monotone fallback: invalidation changes the path, never the answer
    assert sorted(after.rows) == sorted(before.rows)
    assert after.stats.fallback_rows > 0

    def discard_tail_images():  # of the invalidated units only
        for smu in standby.imcs.segment(object_id).live_units():
            if smu.invalid_count:
                smu.restore_validity(*smu.snapshot_validity())

    t = wall_time(scan, before=discard_tail_images)
    _RESULTS["reconcile_heavy"] = {
        "wall_s": t,
        "rows_per_s": TOTAL_ROWS / t,
        "invalid_rows_marked": REAL_ROWS // 4,
        "fallback_rows_per_scan": after.stats.fallback_rows,
    }

    # ---- report (this test runs last in the module) ----
    cores = os.cpu_count() or 1
    payload = {
        "bench": "scan_10m",
        "total_rows": TOTAL_ROWS,
        "synthetic_units": N_UNITS,
        "rows_per_unit": ROWS_PER_UNIT,
        "real_rows": REAL_ROWS,
        "cores": cores,
        "clean_scan_rows_per_s_floor": CLEAN_SCAN_ROWS_PER_S_FLOOR,
        "configs": _RESULTS,
    }
    save_json("scan_10m", payload)
    table_rows = [
        [
            name,
            stats.get("wall_s", stats.get("optimized_s", 0.0)) * 1e3,
            stats.get("rows_per_s", 0.0),
        ]
        for name, stats in _RESULTS.items()
    ]
    save_report(
        "scan_10m",
        render_table(
            ["configuration", "wall time (ms)", "rows/s"],
            table_rows,
            title=f"10M-row scan gauntlet ({TOTAL_ROWS:,} rows, "
                  f"{cores} cores)",
        ),
    )
