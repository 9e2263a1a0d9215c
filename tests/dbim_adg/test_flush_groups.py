"""Regression tests for invalidation-group gathering (`gather_groups`)
and commit-table chop order.

The gathering bug: when a group reached ``GROUP_BLOCK_LIMIT``, a record
for a DBA *already present* in the full group used to spawn a fresh
group instead of merging -- splitting one block's slot set across groups
(defeating whole-block-wins) and routing the DBA twice.
"""

from __future__ import annotations

import random
from collections import deque

from repro.common import TransactionId
from repro.dbim_adg import (
    DDLInformationTable,
    IMADGCommitTable,
    IMADGJournal,
    InvalidationFlushComponent,
)
from repro.dbim_adg.commit_table import CommitTableNode
from repro.dbim_adg.flush import Worklink, gather_groups
from repro.dbim_adg.journal import AnchorNode
from repro.imcs import InMemoryColumnStore
from repro.imcs.imcu import ROW_KEY_SHIFT
from tests.dbim_adg.test_mining_flush import make_stack, make_table, update_cv
from tests.helpers import MinedRecord, add_records, chunk_of
from tests.naive_batch import RedoRecord

XID = TransactionId(1, 7)
X1, X2 = TransactionId(1, 1), TransactionId(1, 2)

#: (dba, slot, transaction) of each data CV, one per redo record
SCRIPT = [
    (3, 1, X1), (1, 0, X2), (3, 1, X1), (2, 4, X1), (1, 2, X2),
    (5, 0, X1), (3, 0, X1), (1, 0, X2), (4, 7, X1), (2, 4, X1),
]


def make_flush(group_block_limit=64):
    journal = IMADGJournal()
    flush = InvalidationFlushComponent(
        journal,
        IMADGCommitTable(4),
        DDLInformationTable(),
        InMemoryColumnStore(),
    )
    flush.GROUP_BLOCK_LIMIT = group_block_limit
    return journal, flush


def node_with_records(records, commit_scn=100):
    anchor = AnchorNode(xid=XID, tenant=0, has_begin=True)
    add_records(anchor, 0, records, commit_scn - 1)
    return CommitTableNode(
        xid=XID, commit_scn=commit_scn, anchor=anchor, tenant=0
    )


def gather(flush, node):
    """One node's groups (a drain of width 1)."""
    (groups,) = gather_groups(
        [(node.commit_scn, node.anchor.chunks())], flush.GROUP_BLOCK_LIMIT
    )
    return groups


def flush_one(flush, node):
    """Drain a worklink holding just ``node``."""
    flush.worklink = Worklink(node.commit_scn, deque([node]))
    assert flush.coordinator_flush(1) == 1


def rec(dba, slots, object_id=900):
    return MinedRecord(
        object_id=object_id, dba=dba, slots=tuple(slots), tenant=0
    )


def dba_assignments(groups):
    """Map (object_id, dba) -> list of groups containing it."""
    where = {}
    for group in groups:
        for dba in group.blocks:
            where.setdefault((group.object_id, dba), []).append(group)
    return where


class TestGatherGroups:
    def test_repeat_dba_merges_into_full_group(self):
        """A record for a DBA already in a full group must merge there,
        not open a split group (the headline regression)."""
        __, flush = make_flush(group_block_limit=2)
        node = node_with_records([
            rec(1, (1,)),
            rec(2, (5,)),      # group now at the limit
            rec(1, ()),        # whole-block for an already-placed DBA
        ])
        groups = gather(flush, node)
        assert len(groups) == 1
        assert groups[0].blocks == {1: (), 2: (5,)}

    def test_no_dba_ever_lands_in_two_groups(self):
        __, flush = make_flush(group_block_limit=2)
        records = []
        for round_ in range(3):
            for dba in (1, 2, 3, 4, 5):
                records.append(rec(dba, (round_,)))
        groups = gather(flush, node_with_records(records))
        where = dba_assignments(groups)
        doubled = {k: len(v) for k, v in where.items() if len(v) > 1}
        assert not doubled, f"DBAs routed twice: {doubled}"
        # every record's slot landed in its DBA's single group
        for dba in (1, 2, 3, 4, 5):
            (group,) = where[(900, dba)]
            assert group.blocks[dba] == (0, 1, 2)

    def test_limit_one_one_group_per_dba(self):
        __, flush = make_flush(group_block_limit=1)
        groups = gather(flush, node_with_records([
            rec(1, (0,)), rec(2, (0,)), rec(1, (3,)), rec(3, ()),
            rec(2, ()),
        ]))
        assert len(groups) == 3
        where = dba_assignments(groups)
        assert all(len(v) == 1 for v in where.values())
        (g1,) = where[(900, 1)]
        assert g1.blocks[1] == (0, 3)
        (g2,) = where[(900, 2)]
        assert g2.blocks[2] == ()  # whole block wins across the merge

    def test_whole_block_wins_across_forced_split(self):
        """With limit=2 a third distinct DBA forces a split; later
        whole-block records for DBAs of the *first* group must still
        reach the first group."""
        __, flush = make_flush(group_block_limit=2)
        groups = gather(flush, node_with_records([
            rec(1, (1,)), rec(2, (2,)),   # group A (full)
            rec(3, (3,)),                 # group B (split point)
            rec(1, ()),                   # must merge into A
            rec(3, (9,)),                 # must merge into B
        ]))
        assert len(groups) == 2
        a, b = groups
        assert a.blocks == {1: (), 2: (2,)}
        assert b.blocks == {3: (3, 9)}

    def test_groups_split_per_object_independently(self):
        __, flush = make_flush(group_block_limit=2)
        groups = gather(flush, node_with_records([
            rec(1, (0,), object_id=900),
            rec(1, (0,), object_id=901),
            rec(2, (0,), object_id=900),
            rec(2, (0,), object_id=901),
            rec(3, (0,), object_id=900),  # only 900 splits
        ]))
        by_object = {}
        for group in groups:
            by_object.setdefault(group.object_id, []).append(group)
        assert len(by_object[900]) == 2
        assert len(by_object[901]) == 1

    def test_routed_group_count_matches_gathered(self):
        journal, flush = make_flush(group_block_limit=1)
        node = node_with_records(
            [rec(1, (0,)), rec(2, (0,)), rec(1, (4,))]
        )
        journal.get_or_create(XID, 0)  # so removal succeeds
        flush_one(flush, node)
        assert flush.router.groups_routed == 2  # one per distinct DBA


def mined_groups(scns, block_limit=2):
    """Mine SCRIPT with its records stamped ``scns`` and gather both
    transactions' groups, at fixed commitSCNs."""
    table = make_table()
    journal, *__, miner, __ = make_stack(table)
    oid = table.default_partition.object_id
    miner.sniff_chunk(
        chunk_of([
            RedoRecord(scn, 1, (update_cv(oid, dba, slot, xid),))
            for scn, (dba, slot, xid) in zip(scns, SCRIPT)
        ]),
        0,
    )
    return gather_groups(
        [(900, journal.get(X1).chunks()), (901, journal.get(X2).chunks())],
        block_limit,
    )


class TestGroupShape:
    def test_record_scns_do_not_move_the_groups(self):
        """The flush reads no mined record's own SCN: the same records
        with their SCNs permuted give identical groups."""
        scns = list(range(100, 100 + len(SCRIPT)))
        expected = mined_groups(scns)
        assert [len(groups) for groups in expected] == [2, 1]
        rng = random.Random(7)
        for __ in range(5):
            rng.shuffle(scns)
            assert mined_groups(scns) == expected

    def test_keys_and_whole_blocks_are_sorted_distinct_lists(self):
        rng = random.Random(11)
        for block_limit in (None, 1, 2, 3):
            transactions = []
            for commit_scn in range(100, 106):
                anchor = AnchorNode(xid=XID, tenant=0)
                for worker in range(rng.randint(1, 3)):
                    add_records(
                        anchor,
                        worker,
                        [
                            rec(
                                rng.randint(1, 6),
                                rng.sample(range(5), rng.randint(0, 2)),
                                object_id=rng.choice((900, 901)),
                            )
                            for __ in range(rng.randint(1, 8))
                        ],
                        commit_scn - 1,
                    )
                transactions.append((commit_scn, anchor.chunks()))
            for groups in gather_groups(transactions, block_limit):
                for group in groups:
                    for values in (group.keys, group.whole_blocks):
                        assert type(values) is list
                        assert values == sorted(set(values))
                    key_dbas = {key >> ROW_KEY_SHIFT for key in group.keys}
                    assert not key_dbas & set(group.whole_blocks)


class TestChopStableOrder:
    def test_equal_commit_scns_straddling_partitions(self):
        """`chop` merges per-partition prefixes with a stable sort: nodes
        with equal commitSCN come out in partition-index order, and
        within one partition in insertion order."""
        table = IMADGCommitTable(4)
        # craft xids landing in different partitions
        by_partition = {}
        for low in range(1, 200):
            xid = TransactionId(1, low)
            index = table._partition_index(xid)
            by_partition.setdefault(index, []).append(xid)
            if all(len(by_partition.get(i, ())) >= 2 for i in range(4)):
                break
        assert len(by_partition) == 4
        inserted = []
        for index in range(4):
            for xid in by_partition[index][:2]:
                node = CommitTableNode(
                    xid=xid, commit_scn=500, anchor=None, tenant=0
                )
                table.insert_batch([node])
                inserted.append(node)
        chopped = table.chop(500)
        assert len(chopped) == 8
        # stable: equal-SCN nodes keep partition-index-then-insertion order
        assert [n.xid for n in chopped] == [n.xid for n in inserted]

    def test_chop_mixed_scns_sorted_and_stable_within_ties(self):
        table = IMADGCommitTable(2)
        nodes = []
        for low in range(1, 40):
            xid = TransactionId(1, low)
            scn = 100 + (low % 3)  # many ties
            node = CommitTableNode(
                xid=xid, commit_scn=scn, anchor=None, tenant=0
            )
            table.insert_batch([node])
            nodes.append(node)
        chopped = table.chop(200)
        scns = [n.commit_scn for n in chopped]
        assert scns == sorted(scns)
        # partition straddle: each tie class contains xids from both
        # partitions and no node is lost or duplicated
        assert len(chopped) == len(nodes)
        assert {id(n) for n in chopped} == {id(n) for n in nodes}
