"""CPU-transfer measurements (paper, sections IV-A-1 and IV-B).

Two claims to reproduce in shape:

* update-only workload: offloading scans to the standby cuts primary CPU
  ("from 11.7% ... to 4.7%") while raising standby CPU ("from 2% to 17%");
* scan-only workload: "there is a direct transfer of CPU usage from the
  Primary to the Standby database instance -- while Primary's CPU usage
  reduces from 8% to 0.5%, the Standby CPU increases from 0.3% to 7.9%".

We run each workload twice -- scans on the primary vs scans on the standby
-- and compare per-node utilisation over the run window.
"""

from __future__ import annotations

import pytest

from repro.db.deployment import InMemoryService
from repro.obs.render import render_table

from conftest import bench_oltap_config, save_report


def run_pair(config_factory):
    """Run the workload with scans on the primary, then on the standby.

    Utilisation is measured over the steady-state workload window only
    (setup/bulk-load/population CPU is excluded via busy-time baselines).
    """
    from conftest import bench_system_config
    from repro.db.deployment import Deployment
    from repro.workload.oltap import OLTAPWorkload

    out = {}
    for target in ("primary", "standby"):
        deployment = Deployment.build(config=bench_system_config())
        workload = OLTAPWorkload(deployment, config_factory())
        workload.setup(service=InMemoryService.BOTH)
        primary_node = deployment.primary.node
        standby_node = deployment.standby.node
        base_primary = primary_node.busy_seconds
        base_standby = standby_node.busy_seconds
        workload.start(scan_target=target)
        workload.run()
        workload.stop()
        duration = workload.config.duration
        out[target] = (
            deployment,
            workload,
            (
                primary_node.utilisation(duration, base_primary),
                standby_node.utilisation(duration, base_standby),
            ),
        )
    return out


@pytest.fixture(scope="module")
def update_only_pair():
    # The paper's 1% scan share is significant CPU because each of its
    # scans covers 6M rows; at our scale the same share would vanish into
    # the DML noise, so the scan share is raised until scan CPU and DML
    # CPU are of comparable magnitude -- preserving the measurement's
    # question (where does scan CPU land?) rather than the mix constant.
    return run_pair(
        lambda: bench_oltap_config(
            pct_update=0.70, pct_insert=0.0, pct_scan=0.12, duration=2.0
        )
    )


@pytest.fixture(scope="module")
def scan_only_pair():
    return run_pair(
        lambda: bench_oltap_config(
            pct_update=0.0, pct_insert=0.0, pct_scan=0.25, duration=2.0
        )
    )


def test_cpu_transfer_update_only(update_only_pair, benchmark):
    on_primary = update_only_pair["primary"][2]
    on_standby = update_only_pair["standby"][2]
    rows = [
        ["scans on primary", on_primary[0], on_primary[1]],
        ["scans on standby", on_standby[0], on_standby[1]],
    ]
    save_report(
        "cpu_transfer_update_only",
        render_table(
            ["configuration", "primary CPU %", "standby CPU %"],
            rows,
            title="CPU transfer, update-only workload "
                  "(paper: primary 11.7% -> 4.7%, standby 2% -> 17%)",
        ),
    )
    # shape: offloading lowers primary CPU and raises standby CPU
    assert on_standby[0] < on_primary[0] * 0.95
    assert on_standby[1] > on_primary[1] * 1.2

    deployment, workload, __ = update_only_pair["standby"]
    benchmark(lambda: workload.query_driver.run_one_query())


def test_cpu_transfer_scan_only(scan_only_pair, benchmark):
    on_primary = scan_only_pair["primary"][2]
    on_standby = scan_only_pair["standby"][2]
    rows = [
        ["scans on primary", on_primary[0], on_primary[1]],
        ["scans on standby", on_standby[0], on_standby[1]],
    ]
    save_report(
        "cpu_transfer_scan_only",
        render_table(
            ["configuration", "primary CPU %", "standby CPU %"],
            rows,
            title="CPU transfer, scan-only workload "
                  "(paper: primary 8% -> 0.5%, standby 0.3% -> 7.9%)",
        ),
    )
    # direct transfer: with no DML the primary goes nearly idle and the
    # scan cost reappears on the standby
    assert on_standby[0] < on_primary[0] * 0.6
    assert on_standby[1] > on_primary[1] * 1.5

    deployment, workload, __ = scan_only_pair["standby"]
    benchmark(lambda: workload.query_driver.run_one_query())
