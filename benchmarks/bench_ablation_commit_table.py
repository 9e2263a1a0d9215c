"""Ablation: IM-ADG Commit Table partitioning (paper, III-D-1).

"To address the bottleneck of insertion into a single, sorted linked list
by the Mining Component, the IM-ADG Commit Table can be partitioned to
create multiple sorted linked lists."

A wall-clock microbenchmark of insertion into 1 and into 16 partitions at
a large pending-transaction population (sorted insertion into shorter
lists is cheaper); the chop returns commitSCN-sorted nodes either way.
"""

from __future__ import annotations

import random

import pytest

from repro.common.ids import TransactionId
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable

N_PENDING = 20_000


def insert_nodes(n_partitions: int, n_nodes: int = N_PENDING) -> IMADGCommitTable:
    table = IMADGCommitTable(n_partitions=n_partitions)
    rng = random.Random(17)
    for i in range(n_nodes):
        node = CommitTableNode(
            xid=TransactionId(1, i),
            commit_scn=rng.randrange(1, 10_000_000),
            anchor=None,
            tenant=0,
        )
        table.insert_batch([node])
    return table


@pytest.mark.parametrize("n_partitions", [1, 16])
def test_ablation_commit_table_partitioning(benchmark, n_partitions):
    # correctness identical: a chop returns SCN-sorted nodes either way
    table = insert_nodes(n_partitions, n_nodes=2_000)
    chopped = table.chop(10_000_000)
    scns = [node.commit_scn for node in chopped]
    assert scns == sorted(scns)
    assert len(chopped) == 2_000

    # wall-clock: insertion throughput at a large pending population
    benchmark(lambda: insert_nodes(n_partitions))
