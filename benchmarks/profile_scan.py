"""Ad-hoc profiler for the scan paths (not part of the bench suite).

Run: cd benchmarks && PYTHONPATH=../src python profile_scan.py MODE, MODE one
of clean, sparse, heavy, warm (default heavy).

``sparse`` is ``bench_microbench_scan``'s live-width arm (~1.5% of the rows
invalid, two per touched block: what ``bench_e2e``'s ``scan_churn``
sustains); ``heavy`` its 25%-of-rows + 10%-of-blocks arm.  Both are cold:
the SMUs' tail images are discarded (the epoch bumped, outside the
profile) before every query, so each one walks its tails.  ``warm`` is the
``sparse`` width with the images kept, as every query after the first at
one QuerySCN runs.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import sys

from repro.db.deployment import InMemoryService
from repro.imcs.scan import Predicate

from conftest import bench_oltap_config, run_scenario

MODE = sys.argv[1] if len(sys.argv) > 1 else "heavy"

config = bench_oltap_config(duration=0.5, pct_update=0.0, pct_scan=0.0)
deployment, workload = run_scenario(config, service=InMemoryService.STANDBY)
standby = deployment.standby
table_name = workload.config.table_name
table = standby.catalog.table(table_name)
snapshot = standby.query_scn.value
predicate = Predicate.eq("n1", 1234.0)

object_id = table.default_partition.object_id
segment = standby.imcs.segment(object_id)
COLD = MODE in ("sparse", "heavy")
if MODE in ("sparse", "warm"):
    rng = random.Random(11)
    for smu in segment.live_units():
        imcu = smu.imcu
        for dba in rng.sample(
            list(imcu.covered_dbas), k=max(1, round(imcu.n_rows * 0.015 / 2))
        ):
            for position in rng.sample(imcu.positions_for_dba(dba).tolist(), k=2):
                standby.imcs.invalidate(
                    object_id, dba, (int(imcu.row_slots[position]),), snapshot
                )
elif MODE == "heavy":
    rng = random.Random(7)
    for smu in segment.live_units():
        imcu = smu.imcu
        for position in rng.sample(range(imcu.n_rows), k=int(imcu.n_rows * 0.25)):
            rowid = imcu.rowids[position]
            standby.imcs.invalidate(object_id, rowid.dba, (rowid.slot,), snapshot)
        dbas = list(imcu.covered_dbas)
        for dba in rng.sample(dbas, k=max(1, len(dbas) // 10)):
            standby.imcs.invalidate(object_id, dba, (), snapshot)


def run(n=50, profiler=None):
    for __ in range(n):
        if COLD:
            if profiler is not None:
                profiler.disable()
            for smu in segment.live_units():
                smu.restore_validity(*smu.snapshot_validity())
            if profiler is not None:
                profiler.enable()
        standby.query(table_name, [predicate])


run(3)  # warm
profiler = cProfile.Profile()
profiler.enable()
run(50, profiler)
profiler.disable()
stats = pstats.Stats(profiler)
stats.sort_stats("cumulative").print_stats(35)
