"""Extension benchmark: restart-to-first-query, instant vs cold.

The paper's III-E restart story is the motivation for population
checkpoints (:mod:`repro.restart`): without them a standby bounce drops
the whole IMCS and the first analytic query waits behind full
repopulation.  With checkpoints the restart path reinstalls the IMCUs
it captured, warm, and re-mines only the redo tail.

Two measurements on the same prepared deployment shape:

* **restart-to-first-columnar-query** -- modeled restart cost plus the
  time until a scan is served from the IMCS again, instant vs cold.  The
  CI gate asserts the instant path is at least 2x faster end-to-end.
* **create-table-heavy stream** -- apply stalls and catch-up time on a
  redo stream of create-table markers each followed at once by inserts
  hashed to other workers.  The standby dictionary learns a table when
  its marker is distributed, so static DBA hashing never waits on another
  worker: the CI gate asserts 0 apply stalls.
"""

from __future__ import annotations

import pytest

from repro.common.config import ApplyConfig
from repro.db import ColumnDef, TableDef
from repro.db.deployment import Deployment, InMemoryService
from repro.imcs.scan import Predicate
from repro.obs.render import render_table
from repro.workload.oltap import OLTAPConfig, OLTAPWorkload

from conftest import bench_system_config, save_json, save_report

#: CI gate: instant restart must beat cold by at least this factor.
MIN_SPEEDUP = 2.0


def prepared_deployment():
    deployment = Deployment.build(config=bench_system_config())
    config = OLTAPConfig(
        n_rows=4_000, target_ops_per_sec=400.0,
        pct_update=0.5, pct_scan=0.0, duration=1.0,
    )
    workload = OLTAPWorkload(deployment, config)
    workload.setup(service=InMemoryService.STANDBY)
    deployment.enable_restart_checkpoints()
    workload.start()
    workload.run()
    workload.stop()
    deployment.catch_up()
    deployment.run(1.0)  # at least one full checkpoint round
    deployment.lose_primary()
    return deployment, config.table_name


def run_restart(cold: bool):
    deployment, table_name = prepared_deployment()
    standby = deployment.standby
    start = deployment.sched.now
    report = deployment.restart_standby(cold=cold)
    # time until the IMCS serves scans again: instant is immediate (the
    # checkpointed units come back warm), cold pays full repopulation
    deployment.sched.run_until_condition(
        standby.population.fully_populated, max_time=600.0
    )
    repopulation_s = deployment.sched.now - start
    probe = standby.query(table_name, [Predicate.eq("n1", 1234.0)])
    assert probe.stats.imcus_used >= 1  # columnar again either way
    total = report.modeled_seconds + repopulation_s + (
        probe.stats.cost_seconds
    )
    return {
        "mode": report.mode,
        "modeled_restart_s": report.modeled_seconds,
        "repopulation_s": repopulation_s,
        "first_query_ms": probe.stats.cost_seconds * 1e3,
        "restart_to_first_query_s": total,
        "units_restored": report.units_restored,
        "rows_restored": report.rows_restored,
        "cvs_remined": report.cvs_remined,
    }


def run_create_table_heavy():
    """Create-table-heavy stream: markers + immediate inserts interleave,
    the shape where a hashed data CV would wait behind a marker queued on
    another worker if the dictionary were learned at apply time."""
    config = bench_system_config(apply=ApplyConfig(n_workers=4))
    deployment = Deployment.build(config=config)
    primary = deployment.primary
    for t in range(30):
        deployment.create_table(TableDef(
            f"T{t}",
            (ColumnDef.number("id", nullable=False),
             ColumnDef.number("n1")),
            rows_per_block=8,
        ))
        txn = primary.begin()
        for i in range(60):
            primary.insert(txn, f"T{t}", (i, float(i)))
        primary.commit(txn)
    start = deployment.sched.now
    deployment.catch_up()
    return {
        "apply_stalls": sum(
            int(w.apply_stalls) for w in deployment.standby.workers
        ),
        "catchup_s": deployment.sched.now - start,
    }


@pytest.fixture(scope="module")
def runs():
    return {
        "instant (checkpointed IMCS + tail replay)": run_restart(cold=False),
        "cold (coarse invalidation + repopulation)": run_restart(cold=True),
    }


@pytest.fixture(scope="module")
def stream_run():
    return run_create_table_heavy()


def test_restart_to_first_query(runs, benchmark):
    instant = runs["instant (checkpointed IMCS + tail replay)"]
    cold = runs["cold (coarse invalidation + repopulation)"]
    assert instant["mode"] == "instant"
    assert cold["mode"] == "cold"
    assert instant["units_restored"] > 0
    speedup = (
        cold["restart_to_first_query_s"]
        / instant["restart_to_first_query_s"]
    )
    rows = [
        [name, data["modeled_restart_s"] * 1e3, data["repopulation_s"],
         data["first_query_ms"], data["restart_to_first_query_s"]]
        for name, data in runs.items()
    ]
    save_report(
        "restart_first_query",
        render_table(
            ["restart path", "modeled restart (ms)",
             "repopulation (sim s)", "first columnar query (ms)",
             "restart-to-first-query (s)"],
            rows,
            title=f"Restart-to-first-columnar-query "
                  f"(instant is {speedup:.1f}x faster)",
        ),
    )
    # the perf gate: instant must stay >= 2x faster than cold
    assert speedup >= MIN_SPEEDUP, (
        f"instant restart only {speedup:.2f}x faster than cold "
        f"(gate: {MIN_SPEEDUP}x)"
    )

    # wall-clock: the first columnar query on a freshly instant-restarted
    # standby (the metric the whole subsystem exists to shrink)
    deployment, table_name = prepared_deployment()
    report = deployment.restart_standby()
    assert report.mode == "instant"
    benchmark(
        lambda: deployment.standby.query(
            table_name, [Predicate.eq("n1", 1234.0)]
        )
    )


def test_create_table_heavy_stream_never_stalls(runs, stream_run):
    save_report(
        "restart_apply_routing",
        render_table(
            ["stream", "apply stalls", "catch-up (sim s)"],
            [["create-table-heavy", stream_run["apply_stalls"],
              stream_run["catchup_s"]]],
            title="Static DBA hashing on a create-table-heavy stream",
        ),
    )
    assert stream_run["apply_stalls"] == 0

    instant = runs["instant (checkpointed IMCS + tail replay)"]
    cold = runs["cold (coarse invalidation + repopulation)"]
    save_json("restart", {
        "instant": instant,
        "cold": cold,
        "speedup": (
            cold["restart_to_first_query_s"]
            / instant["restart_to_first_query_s"]
        ),
        "gate_min_speedup": MIN_SPEEDUP,
        "create_table_heavy": stream_run,
    })
