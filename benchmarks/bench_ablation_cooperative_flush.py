"""Ablation: cooperative flush vs coordinator-only flush (paper, III-D-2).

"It is easy to see that once the worklink has been created, the flush of
invalidation records for different transactions in the worklink can be
parallelized.  DBIM-on-ADG Invalidation Flush Component uses the recovery
workers to aid this process, performing 'Cooperative Flush'."

With cooperative flush disabled the recovery coordinator drains every
worklink alone, so QuerySCN publication latency grows -- the exact risk
the paper gives for a slow flush ("any latency in establishing the
QuerySCN runs the risk of making the Standby database lag").
"""

from __future__ import annotations

import pytest

from repro.common.config import ApplyConfig
from repro.db.deployment import InMemoryService
from repro.obs.render import render_table

from conftest import (
    bench_oltap_config,
    bench_system_config,
    run_scenario,
    save_report,
)


def workload_config():
    return bench_oltap_config(
        pct_update=0.70, pct_scan=0.0, duration=3.0,
        target_ops_per_sec=1500.0,
    )


def run_mode(cooperative: bool):
    system_config = bench_system_config()
    # stress the flush path: long advancement intervals build up large
    # worklinks, and a small coordinator batch makes the drain span many
    # steps -- the regime where worker participation matters
    system_config.apply = ApplyConfig(
        n_workers=4,
        cooperative_flush=cooperative,
        coordinator_flush_batch=2,
        coordinator_interval=0.05,
    )
    deployment, workload = run_scenario(
        workload_config(), service=InMemoryService.STANDBY,
        system_config=system_config,
    )
    coordinator = deployment.standby.coordinator
    return {
        "deployment": deployment,
        "mean_publish_latency": coordinator.mean_publish_latency,
        "advancements": coordinator.advancements,
        "worker_flushed": deployment.standby.flush.nodes_flushed_by_workers,
        "total_flushed": deployment.standby.flush.nodes_flushed,
    }


@pytest.fixture(scope="module")
def modes():
    return {
        "cooperative": run_mode(True),
        "coordinator-only": run_mode(False),
    }


def test_ablation_cooperative_flush(modes, benchmark):
    cooperative = modes["cooperative"]
    solo = modes["coordinator-only"]
    rows = [
        [
            name,
            data["advancements"],
            data["total_flushed"],
            data["worker_flushed"],
            data["mean_publish_latency"] * 1e6,
        ]
        for name, data in modes.items()
    ]
    save_report(
        "ablation_cooperative_flush",
        render_table(
            ["mode", "QuerySCN advancements", "nodes flushed",
             "flushed by workers", "mean publish latency (us)"],
            rows,
            title="Ablation: cooperative flush vs coordinator-only flush",
        ),
    )

    # workers genuinely participate only in cooperative mode
    assert cooperative["worker_flushed"] > 0
    assert solo["worker_flushed"] == 0
    # both modes flush everything eventually (correctness unaffected)
    assert solo["total_flushed"] > 0
    # cooperative mode publishes faster on average: the worklink drains
    # in parallel instead of serially on the coordinator
    assert (
        cooperative["mean_publish_latency"]
        < solo["mean_publish_latency"]
    )

    benchmark(
        cooperative["deployment"].standby.coordinator.consistency_point
    )
