"""Tests for the IM-ADG Journal and Commit Table structures."""

from repro.common import TransactionId
from repro.dbim_adg import CommitTableNode, IMADGCommitTable, IMADGJournal
from tests.helpers import MinedRecord, add_records, records_of


def xid(n):
    return TransactionId(1, n)


def record(obj=9, dba=5, slots=(0,)):
    return MinedRecord(obj, dba, slots, tenant=0)


def insert(table, node):
    """One node as a width-1 batch."""
    table.insert_batch([node])


class TestJournal:
    def test_get_or_create_then_get(self):
        journal = IMADGJournal()
        anchor = journal.get_or_create(xid(1), 0)
        assert anchor is not None
        assert journal.get(xid(1)) is anchor
        assert journal.anchor_count == 1

    def test_per_worker_areas_accumulate_without_latch(self):
        journal = IMADGJournal()
        anchor = journal.get_or_create(xid(1), 0)
        add_records(anchor, 0, [record(dba=10)], 10)
        add_records(anchor, 1, [record(dba=11)], 11)
        add_records(anchor, 0, [record(dba=12)], 12)
        assert anchor.n_records == 3
        assert len(anchor.worker_chunks) == 2
        assert [r.dba for r in records_of(anchor, 0)] == [10, 12]
        assert [r.dba for r in records_of(anchor, 1)] == [11]
        assert anchor.first_scn == 10

    def test_remove(self):
        journal = IMADGJournal()
        journal.get_or_create(xid(1), 0)
        assert journal.remove(xid(1)) is True
        assert journal.remove(xid(1)) is False
        assert journal.anchor_count == 0

    def test_clear_drops_everything(self):
        journal = IMADGJournal()
        for i in range(10):
            anchor = journal.get_or_create(xid(i), 0)
            add_records(anchor, 0, [record()], 10)
        journal.clear()
        assert journal.anchor_count == 0
        assert journal.record_count == 0


class TestCommitTable:
    def node(self, n, scn, coarse=False):
        return CommitTableNode(
            xid=xid(n), commit_scn=scn, anchor=None, tenant=0, coarse=coarse
        )

    def test_insert_sorted_within_partition(self):
        table = IMADGCommitTable(n_partitions=1)
        for scn in (30, 10, 20):
            insert(table, self.node(scn, scn))
        chopped = table.chop(100)
        assert [n.commit_scn for n in chopped] == [10, 20, 30]

    def test_chop_respects_boundary(self):
        table = IMADGCommitTable(n_partitions=4)
        for scn in range(10, 20):
            insert(table, self.node(scn, scn))
        chopped = table.chop(14)
        assert sorted(n.commit_scn for n in chopped) == [10, 11, 12, 13, 14]
        assert len(table) == 5
        assert table.chop(10**9)[0].commit_scn == 15  # the lowest pending

    def test_chop_merges_partitions_in_scn_order(self):
        table = IMADGCommitTable(n_partitions=4)
        for scn in (55, 12, 78, 31, 44, 9):
            insert(table, self.node(scn, scn))
        chopped = table.chop(1000)
        scns = [n.commit_scn for n in chopped]
        assert scns == sorted(scns)

    def test_empty_chop(self):
        table = IMADGCommitTable()
        assert table.chop(100) == []
        assert len(table) == 0  # nothing pending


class TestInsertBatch:
    def node(self, n, scn):
        return CommitTableNode(
            xid=xid(n), commit_scn=scn, anchor=None, tenant=0
        )

    def test_tail_extend_fast_path(self):
        table = IMADGCommitTable(n_partitions=1)
        insert(table, self.node(0, 5))
        table.insert_batch([self.node(1, 20), self.node(2, 10)])
        assert [n.commit_scn for n in table.chop(100)] == [5, 10, 20]

    def test_merge_matches_bisect_right_on_ties(self):
        """Batch insertion with tied commitSCNs must order existing
        nodes before new ones -- exactly what one width-1 batch per node
        produces."""
        batched = IMADGCommitTable(n_partitions=1)
        serial = IMADGCommitTable(n_partitions=1)
        first = [(1, 10), (2, 20), (3, 20)]
        second = [(4, 20), (5, 5), (6, 20)]
        for n, scn in first:
            insert(batched, self.node(n, scn))
            insert(serial, self.node(n, scn))
        batched.insert_batch([self.node(n, scn) for n, scn in second])
        for n, scn in second:
            insert(serial, self.node(n, scn))
        assert [(n.xid, n.commit_scn) for n in batched.chop(100)] == [
            (n.xid, n.commit_scn) for n in serial.chop(100)
        ]


class TestChopStableOrder:
    """Regression: the heapq.merge chop must preserve the ordering the
    old collect-then-stable-sort implementation gave -- commitSCN ties
    resolve by partition index, then by insertion order."""

    def test_ties_resolve_partition_then_insertion_order(self):
        table = IMADGCommitTable(n_partitions=4)
        nodes = []
        for i in range(40):
            node = CommitTableNode(
                xid=xid(i), commit_scn=10 + (i % 3) * 5,
                anchor=None, tenant=0,
            )
            nodes.append(node)
            insert(table, node)
        # the old implementation: concatenate partitions in index order,
        # then one stable sort by commitSCN
        expected = []
        for index in range(table.n_partitions):
            expected.extend(
                n for n in nodes
                if hash(n.xid) % table.n_partitions == index
            )
        expected.sort(key=lambda n: n.commit_scn)  # stable
        chopped = table.chop(1000)
        assert [(n.xid, n.commit_scn) for n in chopped] == [
            (n.xid, n.commit_scn) for n in expected
        ]

    def test_partial_chop_keeps_remainder_sorted(self):
        table = IMADGCommitTable(n_partitions=3)
        for i, scn in enumerate((9, 44, 12, 44, 31, 78, 44, 9)):
            insert(
                table,
                CommitTableNode(
                    xid=xid(i), commit_scn=scn, anchor=None, tenant=0
                ),
            )
        first = table.chop(44)
        scns = [n.commit_scn for n in first]
        assert scns == sorted(scns) and max(scns) <= 44
        rest = table.chop(1000)
        assert [n.commit_scn for n in rest] == [78]


class TestFloorHeap:
    """min_first_scn is served from a lazy-deletion min-heap; it must
    stay exact across removes and anchor re-creation."""

    def seed(self, journal, floors):
        for i, scn in floors.items():
            journal.get_or_create(xid(i), 0).note_scn(scn)

    def test_tracks_minimum(self):
        journal = IMADGJournal()
        self.seed(journal, {1: 30, 2: 10, 3: 20})
        assert journal.min_first_scn() == 10

    def test_empty_journal_is_zero(self):
        assert IMADGJournal().min_first_scn() == 0

    def test_survives_remove(self):
        journal = IMADGJournal()
        self.seed(journal, {1: 30, 2: 10, 3: 20})
        assert journal.remove(xid(2)) is True
        assert journal.min_first_scn() == 20
        assert journal.remove(xid(3)) is True
        assert journal.min_first_scn() == 30
        assert journal.remove(xid(1)) is True
        assert journal.min_first_scn() == 0

    def test_floor_decrease_reflected(self):
        journal = IMADGJournal()
        self.seed(journal, {1: 30})
        assert journal.min_first_scn() == 30
        anchor = journal.get_or_create(xid(1), 0)
        anchor.note_scn(7)
        assert journal.min_first_scn() == 7
        anchor.note_scn(50)  # first_scn never increases
        assert journal.min_first_scn() == 7

    def test_recreated_anchor_gets_fresh_floor(self):
        journal = IMADGJournal()
        self.seed(journal, {1: 10, 2: 40})
        assert journal.remove(xid(1)) is True
        anchor = journal.get_or_create(xid(1), 0)
        anchor.note_scn(25)
        assert journal.min_first_scn() == 25

    def test_clear_resets_heap(self):
        journal = IMADGJournal()
        self.seed(journal, {1: 10})
        journal.clear()
        assert journal.min_first_scn() == 0
        anchor = journal.get_or_create(xid(9), 0)
        anchor.note_scn(99)
        assert journal.min_first_scn() == 99

    def test_batch_adds_feed_the_heap(self):
        journal = IMADGJournal()
        anchor = journal.get_or_create(xid(1), 0)
        add_records(anchor, 0, [MinedRecord(9, 5, (0,), 0)], 42)
        add_records(anchor, 1, [MinedRecord(9, 6, (1,), 0)], 17)
        assert anchor.first_scn == 17
        assert journal.min_first_scn() == 17
