"""Reporting offload: OLTP on the primary, analytics on the standby.

Recreates the paper's headline scenario (sections I and IV-A): a
high-rate DML workload runs on the primary while ad-hoc full-table-scan
reports run on the standby.  We run the reports twice -- without and with
DBIM-on-ADG -- and print the response-time speedup and the CPU picture,
the same two stories Figures 9 and the CPU-transfer numbers tell.

Run:  python examples/reporting_offload.py
"""

from repro.db import Deployment, InMemoryService
from repro.obs.render import render_table, speedup
from repro.workload import OLTAPConfig, OLTAPWorkload


def run_reporting(service):
    config = OLTAPConfig(
        n_rows=4_000,
        n_number_columns=20,
        n_varchar_columns=20,
        target_ops_per_sec=500.0,
        pct_update=0.70,
        pct_scan=0.02,
        duration=3.0,
    )
    deployment = Deployment.build()
    workload = OLTAPWorkload(deployment, config)
    workload.setup(service=service)
    workload.start(scan_target="standby")
    workload.run()
    workload.stop()
    deployment.catch_up()
    return deployment, workload


def main() -> None:
    print("== run 1: reports on a plain ADG standby (row store only) ==")
    __, baseline = run_reporting(service=None)
    baseline_q1 = baseline.query_driver.q1.stats()

    print("== run 2: reports on a DBIM-on-ADG standby ==")
    deployment, accelerated = run_reporting(service=InMemoryService.STANDBY)
    fast_q1 = accelerated.query_driver.q1.stats()

    print()
    print(render_table(
        ["configuration", "Q1 median (ms)", "Q1 p95 (ms)", "samples"],
        [
            ["plain ADG standby", baseline_q1["p50"] * 1e3,
             baseline_q1["p95"] * 1e3, baseline_q1["count"]],
            ["DBIM-on-ADG standby", fast_q1["p50"] * 1e3,
             fast_q1["p95"] * 1e3, fast_q1["count"]],
        ],
        title="Ad-hoc report response time on the standby",
    ))
    factor = speedup(baseline_q1["p50"], fast_q1["p50"])
    print(f"\nDBIM-on-ADG speedup: {factor:.0f}x (paper: ~100x at full scale)")
    assert factor > 5

    print("\n== where the work ran (CPU busy-seconds over the run) ==")
    primary_node = deployment.primary.node
    standby_node = deployment.standby.node
    print(render_table(
        ["node", "busy seconds"],
        [
            [primary_node.name, primary_node.busy_seconds],
            [standby_node.name, standby_node.busy_seconds],
        ],
    ))

    print("\n== redo-apply health (the DR guarantee the design protects) ==")
    print(f"   QuerySCN advancements: "
          f"{deployment.standby.coordinator.advancements}")
    print(f"   invalidation records mined: "
          f"{deployment.standby.miner.data_records_mined}")
    print(f"   standby lag after drain: {deployment.redo_lag_scns} SCNs")
    assert deployment.redo_lag_scns <= 5
    print("reporting offload OK")


if __name__ == "__main__":
    main()
