"""Extension benchmark: MIRA scale-out of redo apply (paper, section V).

"With Multi Instance Redo Apply (MIRA), ADG can scale-out redo apply to
multiple instances with Oracle RAC, providing faster log advancement on
the Standby Database."

We generate a redo burst whose apply cost exceeds one instance's
throughput (the per-CV apply cost is raised to create pressure, the
documented lever in ApplyConfig), then measure how long each configuration
needs to drain it:

* SIRA -- a two-instance RAC standby whose master alone applies redo;
* MIRA -- the same two instances, each applying the change vectors it
  owns, advanced by the master's one recovery coordinator.

Shape expectation: MIRA drains the same burst in clearly less simulated
time, while DBIM-on-ADG consistency (mining, cross-journal gather, flush)
holds on both.
"""

from __future__ import annotations

import pytest

from repro.common.config import ApplyConfig, IMCSConfig, RACConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs import Predicate
from repro.obs.render import render_table

from conftest import save_report

N_ROWS = 3_000
APPLY_COST = 2e-4  # pressure: ~5k CVs/s per instance


def burst_config() -> SystemConfig:
    return SystemConfig(
        imcs=IMCSConfig(imcu_target_rows=512, population_workers=1),
        apply=ApplyConfig(n_workers=4, apply_cost_per_cv=APPLY_COST),
        rac=RACConfig(primary_instances=1),
    )


def table_def():
    return TableDef(
        "T",
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("n1"),
            ColumnDef.varchar("c1"),
        ),
        rows_per_block=32,
        indexes=("id",),
    )


def generate_burst(primary, n=N_ROWS):
    rowids = []
    for base in range(0, n, 200):
        txn = primary.begin()
        for i in range(base, min(base + 200, n)):
            rowids.append(primary.insert(txn, "T", (i, i * 1.0, f"v{i % 5}")))
        primary.commit(txn)
    return rowids


def run(mira: bool):
    deployment = Deployment.build(config=burst_config(), heartbeats=False)
    member = deployment.add_standby_cluster(2, mira=mira)
    deployment.create_table(table_def())
    start_scn = deployment.primary.clock.current
    generate_burst(deployment.primary)
    target = deployment.primary.clock.current
    start = deployment.sched.now
    ok = deployment.sched.run_until_condition(
        lambda: member.published_scn >= target, max_time=600.0
    )
    assert ok
    return {
        "drain_seconds": deployment.sched.now - start,
        "scns": target - start_scn,
        "deployment": deployment,
        "member": member,
    }


@pytest.fixture(scope="module")
def runs():
    return {"SIRA (1 apply instance)": run(mira=False),
            "MIRA (2 apply instances)": run(mira=True)}


def test_mira_drains_redo_faster(runs, benchmark):
    sira = runs["SIRA (1 apply instance)"]
    mira = runs["MIRA (2 apply instances)"]
    rows = [
        [name, data["scns"], data["drain_seconds"],
         data["scns"] / data["drain_seconds"]]
        for name, data in runs.items()
    ]
    save_report(
        "mira_scaleout",
        render_table(
            ["configuration", "redo SCNs", "drain time (sim s)",
             "SCNs applied / s"],
            rows,
            title="MIRA scale-out: time to drain one redo burst under "
                  "apply pressure",
        ),
    )
    # the scale-out claim: two apply instances drain clearly faster
    assert mira["drain_seconds"] < sira["drain_seconds"] * 0.75

    # and DBIM-on-ADG consistency holds on the MIRA side
    deployment, member = mira["deployment"], mira["member"]
    deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
    deployment.catch_up()
    primary = deployment.primary
    txn = primary.begin()
    table = primary.catalog.table("T")
    for i in range(0, N_ROWS, 7):
        rowid = table.indexes["id"].search(i)
        primary.update(txn, "T", rowid, {"n1": -4.0})
    primary.commit(txn)
    deployment.catch_up()
    result = member.query("T", [Predicate.eq("n1", -4.0)])
    assert len(result.rows) == len(range(0, N_ROWS, 7))

    benchmark(deployment.standby.coordinator.consistency_point)
