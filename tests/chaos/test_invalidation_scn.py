"""An invalidation reaches an SMU at the commitSCN it announces, never
below it -- on real traffic.

A unit's tail image carried to a newer QuerySCN walks again only the rows
named above the snapshot it was walked at (DESIGN §4, §9), so it rests on
that rule.  Here the chaos ``baseline`` and ``rac_chaos`` scenarios run
with ``SMU.invalidate_keys`` and ``SMU.invalidate_block`` wrapped, and
each SMU remembers the highest SCN that named each of its rows.  Every
site reaches a unit through these two methods: the primary's commit, the
standby's flush, the RAC router's groups, a unit's install of parked
records and a repopulation swap's carried invalidations.

At every QuerySCN an instance publishes, and when the run ends, every
version of every row a live unit captured that committed above the
unit's snapshot and at or below that QuerySCN has been named at its
commitSCN or above.  (Asking, at each call, that no newer version of the
row has committed yet would be wrong: ``rac_chaos`` delays a group past
the next commit to the same row, whose own group follows.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.adg.queryscn import QuerySCNPublisher
from repro.chaos.sites import SiteRegistry, recording
from repro.common.scn import NULL_SCN
from repro.imcs.smu import SMU
from repro.rowstore.block import END

from tests.chaos.scenarios import get_scenario


def named_scns(monkeypatch) -> dict:
    """SMU -> position -> the highest SCN an invalidation named it at."""
    named: dict = {}
    keys, block = SMU.invalidate_keys, SMU.invalidate_block

    def record(smu, positions, scn) -> None:
        seen = named.setdefault(smu, {})
        for position in positions.tolist():
            if scn > seen.get(position, NULL_SCN):
                seen[position] = scn

    def invalidate_keys(self, row_keys, scn, scns=None):
        row_keys = np.asarray(row_keys, dtype=np.int64)
        positions, hit = self.imcu.locate_keys(row_keys)
        if scns is None:
            record(self, positions, scn)
        else:  # each row at its own commitSCN
            for position, own in zip(positions, np.asarray(scns)[hit]):
                record(self, np.array([position]), int(own))
        return keys(self, row_keys, scn, scns)

    def invalidate_block(self, dba, scn):
        record(self, self.imcu.positions_for_dba(dba), scn)
        block(self, dba, scn)

    monkeypatch.setattr(SMU, "invalidate_keys", invalidate_keys)
    monkeypatch.setattr(SMU, "invalidate_block", invalidate_block)
    return named


def unnamed_commits(instance, named: dict, published) -> tuple[int, list]:
    """Versions ``instance``'s live units must have been told of at
    QuerySCN ``published``, and those no invalidation named at their
    commitSCN or above."""
    checked, missed = 0, []
    txns = instance.population.txns
    for segment in instance.imcs.segments():
        blocks = segment.partition.segment._store
        for smu in segment.live_units():
            seen = named.get(smu, {})
            imcu = smu.imcu
            for position, (dba, slot) in enumerate(zip(
                imcu.row_dbas.tolist(), imcu.row_slots.tolist()
            )):
                block = blocks.get_optional(dba)
                i = (
                    block.heads[slot]
                    if block is not None and slot < block.used_slots
                    else END
                )
                while i >= 0:  # newest to oldest
                    commit_scn = txns.commit_scn_of(block.xids[i])
                    if commit_scn is not None:
                        if commit_scn <= imcu.snapshot_scn:
                            break  # in the unit's own data, as is the rest
                        if commit_scn <= published:
                            checked += 1
                            if seen.get(position, NULL_SCN) < commit_scn:
                                missed.append((dba, slot, commit_scn))
                    i = block.prev[i]
    return checked, missed


@pytest.mark.parametrize("name", ["baseline", "rac_chaos"])
def test_every_commit_is_named_at_or_above_its_commit_scn(name, monkeypatch):
    named = named_scns(monkeypatch)
    scenario = get_scenario(name)
    registry = SiteRegistry()
    audited: dict = {}  # publisher -> its instance
    checked, missed = [], []
    publish = QuerySCNPublisher.publish

    def published(self, scn, at_time=0.0):
        publish(self, scn, at_time)
        if self in audited:
            count, late = unnamed_commits(audited[self], named, scn)
            checked.append(count)
            missed.extend(late)

    monkeypatch.setattr(QuerySCNPublisher, "publish", published)
    with recording(registry), obs.collecting(obs.MetricsRegistry()):
        ctx = scenario.build(registry, 7)
        instances = [
            instance
            for member in ctx.deployment.mounted_members
            for instance in member.instances
        ]
        assert len(instances) == (2 if name == "rac_chaos" else 1)
        audited.update((i.query_scn, i) for i in instances)
        scenario.plan().arm(ctx)
        scenario.drive(scenario, ctx)
        scenario.finish(ctx)
        assert all(inv.check(ctx).passed for inv in scenario.invariants)
    assert missed == []
    assert len(checked) > 20 and sum(checked) > 100  # real traffic
