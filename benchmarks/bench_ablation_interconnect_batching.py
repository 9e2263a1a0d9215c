"""Ablation: interconnect batching of invalidation groups (paper, III-F).

"Since messaging over the network can become a bottleneck, DBIM-on-ADG
infrastructure employs batching and pipelined transmission of invalidation
groups to reduce the impact of network latency on QuerySCN advancement."

We run the same RAC standby workload with batch size 1 (one message per
group) and with batching enabled, and compare message counts and QuerySCN
publication latency.
"""

from __future__ import annotations

import pytest

from repro.common.config import RACConfig
from repro.db.deployment import Deployment, InMemoryService
from repro.obs.render import render_table
from repro.workload.oltap import OLTAPWorkload

from conftest import bench_oltap_config, bench_system_config, save_report


def run_mode(batch_size: int):
    system_config = bench_system_config()
    system_config.rac = RACConfig(
        standby_instances=2,
        invalidation_batch_size=batch_size,
        interconnect_latency=0.001,
    )
    deployment = Deployment.build(config=system_config)
    cluster = deployment.add_standby_cluster(n_instances=2)
    config = bench_oltap_config(
        n_rows=2_000, target_ops_per_sec=800.0,
        pct_update=0.70, pct_scan=0.0, duration=2.0,
    )
    workload = OLTAPWorkload(deployment, config)
    workload.setup(service=InMemoryService.STANDBY)
    workload.start(scan_target="standby")
    workload.run()
    workload.stop()
    deployment.catch_up()
    coordinator = deployment.standby.coordinator
    return {
        "deployment": deployment,
        "cluster": cluster,
        "messages": cluster.interconnect.messages_sent,
        "groups_remote": cluster.router.groups_routed_remote,
        "mean_publish_latency": coordinator.mean_publish_latency,
        "advancements": coordinator.advancements,
    }


@pytest.fixture(scope="module")
def modes():
    return {"unbatched (size 1)": run_mode(1), "batched (size 32)": run_mode(32)}


def test_ablation_interconnect_batching(modes, benchmark):
    unbatched = modes["unbatched (size 1)"]
    batched = modes["batched (size 32)"]
    rows = [
        [
            name,
            data["groups_remote"],
            data["messages"],
            data["advancements"],
            data["mean_publish_latency"] * 1e3,
        ]
        for name, data in modes.items()
    ]
    save_report(
        "ablation_interconnect_batching",
        render_table(
            ["mode", "remote groups", "interconnect messages",
             "advancements", "mean publish latency (ms)"],
            rows,
            title="Ablation: batched vs unbatched transmission of "
                  "invalidation groups on the RAC interconnect",
        ),
    )

    assert unbatched["groups_remote"] > 0
    assert batched["groups_remote"] > 0
    # batching sends fewer messages per remote group
    per_group_unbatched = unbatched["messages"] / unbatched["groups_remote"]
    per_group_batched = batched["messages"] / batched["groups_remote"]
    assert per_group_batched < per_group_unbatched

    benchmark(
        batched["deployment"].standby.coordinator.consistency_point
    )
