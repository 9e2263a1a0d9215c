"""Ablation: IM-ADG Commit Table partitioning (paper, III-D-1).

"To address the bottleneck of insertion into a single, sorted linked list
by the Mining Component, the IM-ADG Commit Table can be partitioned to
create multiple sorted linked lists."

Two measurements:

* a wall-clock microbenchmark of insertion throughput into 1 vs 16
  partitions at a large pending-transaction population (sorted insertion
  into shorter lists is cheaper), and
* a simulated-contention count: with one partition every concurrent
  inserter collides on one latch; with 16, most proceed.
"""

from __future__ import annotations

import random

import pytest

from repro.common.ids import TransactionId
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable
from repro.metrics.render import render_table

from conftest import save_report

N_PENDING = 20_000


def insert_nodes(n_partitions: int, n_nodes: int = N_PENDING) -> IMADGCommitTable:
    table = IMADGCommitTable(n_partitions=n_partitions)
    rng = random.Random(17)
    owner = object()
    for i in range(n_nodes):
        node = CommitTableNode(
            xid=TransactionId(1, i),
            commit_scn=rng.randrange(1, 10_000_000),
            anchor=None,
            tenant=0,
        )
        assert not table.insert_batch([node], owner)
    return table


def contention_misses(n_partitions: int, attempts: int = 512) -> int:
    """Emulated concurrency: one holder camps on partition 0's latch while
    other owners insert -- the single-list layout collides every time."""
    table = IMADGCommitTable(n_partitions=n_partitions)
    holder = object()
    table.latches.latch_for(0).try_acquire(holder)
    misses = 0
    for i in range(attempts):
        node = CommitTableNode(
            xid=TransactionId(1, i), commit_scn=i, anchor=None, tenant=0
        )
        if table.insert_batch([node], object()):
            misses += 1
    return misses


def test_ablation_commit_table_partitioning(benchmark):
    single_misses = contention_misses(1)
    partitioned_misses = contention_misses(16)

    # correctness identical: a chop returns SCN-sorted nodes either way
    for n in (1, 16):
        table = insert_nodes(n, n_nodes=2_000)
        chopped = table.chop(10_000_000)
        scns = [node.commit_scn for node in chopped]
        assert scns == sorted(scns)
        assert len(chopped) == 2_000

    save_report(
        "ablation_commit_table",
        render_table(
            ["layout", "latch misses (1 camped latch, 512 inserts)"],
            [
                ["single sorted list", single_misses],
                ["16 partitions", partitioned_misses],
            ],
            title="Ablation: commit-table partitioning removes the "
                  "single-list insertion bottleneck",
        ),
    )

    assert single_misses == 512  # every insert collides
    assert partitioned_misses < 512 / 4

    # wall-clock: insertion throughput at a large pending population
    benchmark(lambda: insert_nodes(16))
