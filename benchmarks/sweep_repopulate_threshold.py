"""One-off study for ROADMAP 1(b): where should ``scan_churn`` repopulate?

Sweeps ``IMCSConfig.repopulate_invalid_fraction`` over ``scan_churn`` -- where
population trades against row-store fallback -- through the bench_e2e harness
as it stands (``run_repeat`` x 3, per-entry medians, a ``dataclasses.replace``
copy of the workload, one fresh process per setting) and prints the table
committed in EXPERIMENTS.md, "Delta repopulation".  No default changes.

    python3 benchmarks/sweep_repopulate_threshold.py
"""

import dataclasses
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
SEED = 7
FRACTIONS = (0.01, 0.02, 0.03, 0.05, 0.08)
COLUMNS = (
    "dml_ops_per_cal_s", "query_cal_ms_p50", "imcs.scan.fallback_rows_per_query",
    "imcs.population.repopulations", "imcs.rows_invalidated", "failed",
)


def measure(fraction: float) -> dict:
    from benchmarks.e2e import report
    from benchmarks.e2e.calibrate import Kernel
    from benchmarks.e2e.harness import run_repeat
    from benchmarks.e2e.workloads import BY_NAME

    churn = BY_NAME["scan_churn"]
    imcs = dataclasses.replace(churn.imcs, repopulate_invalid_fraction=fraction)
    workload = dataclasses.replace(churn, imcs=imcs)
    kernel = Kernel()
    repeats = [run_repeat(workload, SEED, kernel, False, i) for i in range(3)]
    counts = repeats[0].counts
    return {
        **report.end_to_end(repeats), **counts,
        "imcs.scan.fallback_rows_per_query": (
            counts["imcs.scan.fallback_rows"] / counts["imcs.scan.queries"]
        ),
        "failed": report.verdict(repeats)[1],
    }


if __name__ == "__main__":
    if len(sys.argv) > 1:  # one setting in this process, as JSON
        print(json.dumps(measure(float(sys.argv[1]))))
        sys.exit(0)
    print("| `repopulate_invalid_fraction` | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for fraction in FRACTIONS:
        child = subprocess.run(
            [sys.executable, __file__, str(fraction)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        row = json.loads(child.stdout.splitlines()[-1])
        cells = " | ".join(f"{row[name]:.6g}" for name in COLUMNS)
        print(f"| {fraction:.0%} | {cells} |", flush=True)
