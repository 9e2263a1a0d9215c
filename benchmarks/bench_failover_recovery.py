"""Extension benchmark: time-to-analytics after failover.

The DR motivation behind the whole design: "a major challenge ... was to
avoid compromising the key benefit of ADG -- its disaster recoverability."
DBIM-on-ADG adds a second recovery benefit the paper implies but never
measures: after a failover, the standby's column store is already warm.

We fail over the same deployment twice:

* **warm** -- the DBIM-on-ADG-maintained IMCS carries over; the first
  analytic query runs columnar immediately;
* **cold** -- the IMCS is dropped at activation (what a standby *without*
  DBIM-on-ADG would offer); the first analytic query pays the row-format
  path and full repopulation must complete before columnar speed returns.

Shape: warm first-query latency is orders of magnitude lower, and warm
time-to-columnar is ~zero versus the cold repopulation window.
"""

from __future__ import annotations

import pytest

from repro.db.deployment import Deployment, InMemoryService
from repro.db.failover import failover
from repro.imcs.scan import Predicate
from repro.obs.render import render_table
from repro.workload.oltap import OLTAPConfig, OLTAPWorkload

from conftest import bench_system_config, save_report


def prepared_deployment():
    deployment = Deployment.build(config=bench_system_config())
    config = OLTAPConfig(
        n_rows=4_000, target_ops_per_sec=400.0,
        pct_update=0.5, pct_scan=0.0, duration=1.0,
    )
    workload = OLTAPWorkload(deployment, config)
    workload.setup(service=InMemoryService.STANDBY)
    workload.start()
    workload.run()
    workload.stop()
    deployment.catch_up()
    deployment.lose_primary()
    return deployment, config.table_name


def run_failover(cold: bool):
    deployment, table_name = prepared_deployment()
    standby = deployment.standby
    if cold:
        # a standby without DBIM-on-ADG has no IMCS to carry over
        for segment in list(standby.imcs.segments()):
            standby.imcs.drop_units(segment.object_id)
    start = deployment.sched.now
    new_primary = failover(standby, deployment.sched)
    first_query = new_primary.query(
        table_name, [Predicate.eq("n1", 1234.0)]
    )
    first_latency = first_query.stats.cost_seconds
    # time until analytics are columnar again
    deployment.sched.run_until_condition(
        new_primary.population.fully_populated, max_time=600.0
    )
    warm_again = deployment.sched.now - start
    probe = new_primary.query(table_name, [Predicate.eq("n1", 1234.0)])
    assert probe.stats.imcus_used >= 1  # columnar restored either way
    return {
        "first_query_ms": first_latency * 1e3,
        "first_used_imcs": first_query.stats.imcus_used > 0,
        "time_to_columnar_s": warm_again,
    }


@pytest.fixture(scope="module")
def runs():
    return {
        "warm (DBIM-on-ADG IMCS carried over)": run_failover(cold=False),
        "cold (no standby IMCS)": run_failover(cold=True),
    }


def test_failover_recovery_time(runs, benchmark):
    warm = runs["warm (DBIM-on-ADG IMCS carried over)"]
    cold = runs["cold (no standby IMCS)"]
    rows = [
        [name, data["first_query_ms"], data["first_used_imcs"],
         data["time_to_columnar_s"]]
        for name, data in runs.items()
    ]
    save_report(
        "failover_recovery",
        render_table(
            ["configuration", "first analytic query (ms)",
             "first query columnar?", "time to full columnar (sim s)"],
            rows,
            title="Failover: time-to-analytics with vs without a "
                  "DBIM-on-ADG-maintained standby IMCS",
        ),
    )
    assert warm["first_used_imcs"] and not cold["first_used_imcs"]
    assert warm["first_query_ms"] < cold["first_query_ms"] / 10
    assert warm["time_to_columnar_s"] <= cold["time_to_columnar_s"]

    # wall-clock: a post-failover columnar query on a fresh warm scenario
    deployment, table_name = prepared_deployment()
    new_primary = failover(deployment.standby, deployment.sched)
    benchmark(
        lambda: new_primary.query(table_name, [Predicate.eq("n1", 1234.0)])
    )
