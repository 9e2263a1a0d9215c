"""Figure 11: redo apply keeps up on a DBIM-enabled standby.

Paper setup: "a high-throughput transactions workload containing short,
medium and long-running transaction mix run on the Primary database
running with Oracle multi-tenant" on a two-instance RAC primary; the plot
shows per-instance primary log advancement (pri_log, pri_log2) and standby
apply progress (std_log1, std_log2) over two hours: "the log catchup is
almost instantaneous and the Standby database has minimal lag, even in
the presence of the overheads introduced by the DBIM-on-ADG
infrastructure".

Reproduction: two primary RAC instances, two tenants (one driven on each
instance), DBIM-on-ADG enabled.  The redo-lifecycle tracer records every
redo-generation SCN per thread and every QuerySCN publication (the
standby's apply consistency point, paper section II-A); we render those
series over the driven window and assert the lag stays a small fraction of
total redo generated.  Nothing polls: the tracer adds no actor to the
scheduler, so reading the lag does not change the run.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.common.config import RACConfig
from repro.db.deployment import Deployment, InMemoryService
from repro.obs import Series
from repro.obs.render import render_figure
from repro.workload.oltap import (
    DMLDriver,
    OLTAPConfig,
    OLTAPWorkload,
    wide_table_def,
)

from conftest import bench_system_config, save_json, save_report

DURATION = 4.0


@pytest.fixture(scope="module")
def rac_run():
    system_config = bench_system_config()
    system_config.rac = RACConfig(primary_instances=2)
    registry = obs.MetricsRegistry()
    collecting = obs.collecting(registry)
    collecting.__enter__()
    deployment = Deployment.build(config=system_config)

    workloads = []
    for tenant, instance_id in ((1, 1), (2, 2)):
        config = OLTAPConfig(
            table_name=f"C101_T{tenant}",
            n_rows=2_000,
            target_ops_per_sec=500.0,
            pct_update=0.55,
            pct_insert=0.15,
            pct_scan=0.0,
            txn_statements=(1, 12),  # short, medium and long transactions
            duration=DURATION,
            seed=100 + tenant,
        )
        table_def = wide_table_def(config)
        deployment.create_table(
            type(table_def)(
                name=table_def.name,
                columns=table_def.columns,
                tenant=tenant,
                rows_per_block=table_def.rows_per_block,
                scheme=table_def.scheme,
                indexes=table_def.indexes,
            )
        )
        workload = OLTAPWorkload(deployment, config)
        # bulk load without recreating the table
        primary = deployment.primary
        loaded = 0
        while loaded < config.n_rows:
            txn = primary.begin(tenant=tenant, instance_id=instance_id)
            for __ in range(min(500, config.n_rows - loaded)):
                from repro.workload.oltap import make_row

                primary.insert(
                    txn, config.table_name,
                    make_row(config, loaded, workload.rng),
                )
                loaded += 1
            primary.commit(txn)
        deployment.enable_inmemory(
            config.table_name, service=InMemoryService.STANDBY
        )
        workloads.append((workload, instance_id))
    deployment.catch_up()

    run_start = deployment.sched.now
    drivers = []
    for workload, instance_id in workloads:
        driver = DMLDriver(
            deployment, workload.config,
            next_id_start=workload.config.n_rows,
            instance_id=instance_id,
        )
        drivers.append(driver)
        deployment.sched.add_actor(driver)
    deployment.run(DURATION)
    for driver in drivers:
        deployment.sched.remove_actor(driver)
        if driver._txn is not None and driver._txn.is_active:
            deployment.primary.commit(driver._txn)
    deployment.catch_up()
    collecting.__exit__(None, None, None)
    return deployment, run_start, drivers


def window(series: Series, name: str, start: float) -> Series:
    """``series`` from ``start`` on, opening with its value at ``start``."""
    out = Series(name)
    out.record(start, series.value_at(start))
    out.points += [p for p in series.points if p[0] > start]
    return out


def test_fig11_redo_apply_lag(rac_run, benchmark):
    deployment, run_start, drivers = rac_run
    tracer = deployment.obs.tracer

    series = {
        f"pri_log{i}": window(tracer.generated_series(i), f"pri_log{i}",
                              run_start)
        for i in (1, 2)
    }
    series["query_scn"] = window(tracer.published_series, "query_scn",
                                 run_start)
    save_report(
        "fig11_redo_apply_lag",
        render_figure(
            series,
            title="Fig. 11: log advancement (SCN) on 2-instance RAC primary "
                  "vs standby apply with DBIM-on-ADG enabled",
            samples=14,
        ),
    )

    assert all(d.ops_issued > 100 for d in drivers)

    # minimal lag: after the drain, the QuerySCN covers all workload redo
    assert deployment.redo_lag_scns <= 5

    # during the run: the standby's published QuerySCN trails redo
    # generation by only a small fraction of what was generated
    total_scns = max(
        log.last_scn for log in deployment.primary.redo_logs
    )
    worst_gap = tracer.worst_scn_gap(after=run_start + 0.5)  # warm-up
    assert worst_gap < 0.10 * total_scns, (
        f"standby lag peaked at {worst_gap} SCNs of {total_scns}"
    )
    # end-to-end visibility: tracked records really completed the pipeline
    snapshot = deployment.obs.snapshot()
    assert snapshot.total("lifecycle.completed") > 100
    visibility = snapshot.get("lifecycle.visibility_lag")
    assert visibility is not None and visibility["count"] > 100

    # the DBIM machinery really ran: mining + flush happened on the standby
    assert deployment.standby.miner.data_records_mined > 100
    assert deployment.standby.flush.nodes_flushed > 10

    # wall-clock for the recovery-critical stages (best of N)
    import time

    def best_of(fn, repeats=25) -> float:
        best = float("inf")
        for __ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    t_consistency = best_of(deployment.standby.coordinator.consistency_point)
    ops_total = sum(d.ops_issued for d in drivers)
    save_json("apply_lag", {
        "bench": "fig11_redo_apply_lag",
        "duration_simulated_s": DURATION,
        "ops_issued": ops_total,
        "ops_per_simulated_s": ops_total / DURATION,
        "total_redo_scns": total_scns,
        "worst_query_scn_gap_scns": worst_gap,
        "final_redo_lag_scns": deployment.redo_lag_scns,
        "visibility_lag_s": visibility,
        "lifecycle_stages": tracer.stage_summary(),
        "metrics_snapshot": snapshot.as_dict(),
        "data_records_mined": deployment.standby.miner.data_records_mined,
        "invalidation_nodes_flushed": deployment.standby.flush.nodes_flushed,
        "wall_clock": {
            "consistency_point_s": t_consistency,
        },
    })

    # wall-clock: one recovery-coordinator progress computation
    benchmark(deployment.standby.coordinator.consistency_point)
