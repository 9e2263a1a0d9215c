"""Tests for the home-location map, the master's split of a group by
home instance, and the interconnect."""

import random

import pytest

from repro.imcs import InMemoryColumnStore
from repro.imcs.imcu import ROW_KEY_SHIFT, row_keys
from repro.imcs.store import InvalidationGroup
from repro.rac import HomeLocationMap, Interconnect
from repro.rac.cluster import RemoteInvalidationRouter
from repro.sim import Scheduler


class TestHomeLocationMap:
    def test_deterministic(self):
        home_map = HomeLocationMap([1, 2], range_blocks=8)
        assert home_map.instance_for(9, 100) == home_map.instance_for(9, 100)

    def test_blocks_in_same_range_share_home(self):
        home_map = HomeLocationMap([1, 2, 3], range_blocks=8)
        base = 64
        homes = {home_map.instance_for(9, base + i) for i in range(8)}
        assert len(homes) == 1

    def test_distribution_covers_all_instances(self):
        home_map = HomeLocationMap([1, 2, 3], range_blocks=4)
        homes = {home_map.instance_for(9, dba) for dba in range(0, 400, 4)}
        assert homes == {1, 2, 3}

    def test_split_by_home_partitions_exactly(self):
        home_map = HomeLocationMap([1, 2], range_blocks=4)
        dbas = list(range(100))
        split = home_map.split_by_home(9, dbas)
        rejoined = sorted(d for ds in split.values() for d in ds)
        assert rejoined == dbas

    def test_single_instance_owns_everything(self):
        home_map = HomeLocationMap([1])
        assert all(home_map.is_home(1, 9, d) for d in range(50))

    def test_empty_instances_rejected(self):
        with pytest.raises(ValueError):
            HomeLocationMap([])


class TestSplitByHome:
    def test_sub_groups_partition_the_group_exactly(self):
        """Every key and whole block of a group lands in exactly one
        sub-group -- the one of its block's home instance -- in the
        group's order, and the sub-groups carry the group's identity."""
        home_map = HomeLocationMap([1, 2, 3], range_blocks=2)
        router = RemoteInvalidationRouter(
            InMemoryColumnStore(), 1, home_map, Interconnect(Scheduler())
        )
        rng = random.Random(5)
        for __ in range(20):
            whole = sorted(rng.sample(range(40), rng.randint(0, 6)))
            keys = sorted({
                row_keys(dba, rng.randrange(8))
                for dba in rng.sample(range(40), rng.randint(0, 12))
                if dba not in whole
                for __ in range(rng.randint(1, 3))
            })
            group = InvalidationGroup(9, 4, 77, keys, whole)
            subs = router._split_by_home(group)
            assert sorted(k for s in subs.values() for k in s.keys) == keys
            assert sorted(
                d for s in subs.values() for d in s.whole_blocks
            ) == whole
            for instance, sub in subs.items():
                assert (sub.object_id, sub.tenant, sub.commit_scn) == (
                    9, 4, 77,
                )
                assert sub.keys == sorted(sub.keys)
                assert sub.whole_blocks == sorted(sub.whole_blocks)
                assert sub.keys or sub.whole_blocks
                dbas = [key >> ROW_KEY_SHIFT for key in sub.keys]
                assert all(
                    home_map.instance_for(9, dba) == instance
                    for dba in dbas + sub.whole_blocks
                )


class TestInterconnect:
    def test_delivery_after_latency(self):
        sched = Scheduler()
        net = Interconnect(sched, latency=0.01)
        inbox = []
        net.register(2, lambda frm, p: inbox.append((frm, p, sched.now)))
        net.send(1, 2, "hello")
        sched.run_until(0.005)
        assert inbox == []
        sched.run_until(0.02)
        assert inbox[0][:2] == (1, "hello")
        assert abs(inbox[0][2] - 0.01) < 1e-9

    def test_fifo_per_channel(self):
        sched = Scheduler()
        net = Interconnect(sched, latency=0.01)
        inbox = []
        net.register(2, lambda frm, p: inbox.append(p))
        for i in range(10):
            net.send(1, 2, i)
        sched.run_until(1.0)
        assert inbox == list(range(10))

    def test_unregistered_destination_raises(self):
        sched = Scheduler()
        net = Interconnect(sched)
        with pytest.raises(KeyError):
            net.send(1, 2, "x")

    def test_message_stats(self):
        sched = Scheduler()
        net = Interconnect(sched)
        net.register(2, lambda frm, p: None)
        net.send(1, 2, "a", size_hint=5)
        net.send(1, 2, "b", size_hint=3)
        assert net.messages_sent == 2
        assert net.bytes_sent == 8
