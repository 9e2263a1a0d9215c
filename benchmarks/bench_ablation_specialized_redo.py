"""Ablation: specialized redo generation vs pessimism (paper, III-E).

"It is worth noting that special redo generation is not absolutely
essential.  DBIM-on-ADG can pessimistically assume that each transaction
modified some object in the IMCS and trigger coarse invalidation, if a
missing 'transaction begin' is discovered.  However, it is in the interest
of optimum query performance to not trigger coarse invalidation."

We run the restart scenario with a transaction that touches only a
non-in-memory table, under both modes, and count coarse invalidations:
the commit-record flag avoids them entirely; pessimism pays them.
"""

from __future__ import annotations

import pytest

from repro.common.config import JournalConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs.scan import Predicate
from repro.obs.render import render_table

from conftest import bench_system_config, save_report


def table_def(name):
    return TableDef(
        name,
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("n1"),
            ColumnDef.varchar("c1"),
        ),
        rows_per_block=32,
        indexes=("id",),
    )


def run_restart_scenario(specialized: bool):
    system_config = bench_system_config()
    system_config.journal = JournalConfig(
        specialized_commit_redo=specialized
    )
    deployment = Deployment.build(config=system_config)
    deployment.create_table(table_def("INMEM"))
    deployment.create_table(table_def("PLAIN"))
    primary = deployment.primary
    txn = primary.begin()
    for i in range(400):
        primary.insert(txn, "INMEM", (i, float(i), f"v{i % 5}"))
    primary.commit(txn)
    deployment.enable_inmemory("INMEM", service=InMemoryService.STANDBY)
    deployment.catch_up()

    # transactions that straddle the restart but never touch the IMCS
    straddlers = []
    for i in range(10):
        txn = primary.begin()
        primary.insert(txn, "PLAIN", (i, float(i), "x"))
        straddlers.append(txn)
    deployment.run(0.5)  # their DML redo applies on the standby
    deployment.standby.restart()  # journal lost mid-transaction
    deployment.run(0.2)
    deployment.catch_up()  # IMCUs repopulate at a pre-commit QuerySCN
    for txn in straddlers:
        primary.commit(txn)
    deployment.run(1.0)
    deployment.catch_up()

    result = deployment.standby.query("INMEM", [Predicate.eq("c1", "v1")])
    return {
        "deployment": deployment,
        "coarse_invalidations": deployment.standby.imcs.coarse_invalidations,
        "coarse_nodes": deployment.standby.miner.coarse_nodes_created,
        "rows": len(result.rows),
    }


@pytest.fixture(scope="module")
def scenarios():
    return {
        "specialized redo (flag)": run_restart_scenario(True),
        "pessimistic (no flag)": run_restart_scenario(False),
    }


def test_ablation_specialized_redo(scenarios, benchmark):
    flagged = scenarios["specialized redo (flag)"]
    pessimistic = scenarios["pessimistic (no flag)"]
    rows = [
        [name, data["coarse_nodes"], data["coarse_invalidations"]]
        for name, data in scenarios.items()
    ]
    save_report(
        "ablation_specialized_redo",
        render_table(
            ["mode", "coarse commit-table nodes", "coarse invalidations"],
            rows,
            title="Ablation: specialized commit redo vs pessimistic coarse "
                  "invalidation across a standby restart",
        ),
    )

    # the flag proves the straddling transactions are harmless
    assert flagged["coarse_nodes"] == 0
    assert flagged["coarse_invalidations"] == 0
    # pessimism must coarse-invalidate for the same history
    assert pessimistic["coarse_nodes"] >= 1
    assert pessimistic["coarse_invalidations"] >= 1
    # correctness holds either way
    assert flagged["rows"] == pessimistic["rows"] == 80

    deployment = flagged["deployment"]
    benchmark(
        lambda: deployment.standby.query(
            "INMEM", [Predicate.eq("c1", "v1")]
        )
    )
