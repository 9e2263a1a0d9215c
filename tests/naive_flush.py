"""A naive reference model of the Invalidation Flush (paper, III-D).

Not the production algorithm re-hosted: no arrays, no sort, no row keys,
no drain-at-once.  It flushes a worklink the way the paper describes it --
one commit-table node at a time, one invalidation group at a time, one
block at a time -- into SMUs that are plain sets, under these rules:

* **groups**: a transaction's records fold per ``(object, dba)`` -- slot
  sets union, a whole-block record (slot < 0) wins -- and each object's
  blocks, in DBA order, are cut into groups of ``block_limit`` blocks;
* **rows**: a row invalidation marks a row its unit *captured* and counts
  it once, the first time; one of a row the unit did not capture parks on
  the unit with its highest commitSCN (every scan re-reads the edge, but a
  swap hands it on); a whole-block invalidation is recorded per block and
  counts one per group naming it;
* **no unit** (never built, or dropped): the record parks with its own
  commitSCN, and a unit registering later applies exactly what is newer
  than its snapshot;
* **coarse** nodes invalidate every live unit of the tenant;
* a unit remembers the highest commitSCN it was touched at.

:class:`NaiveFlush` also keeps what listeners and routers are owed: the
groups in node order, and the counters the flush reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

Blocks = dict[int, tuple[int, ...]]  # dba -> slots, () = the whole block


def naive_groups(
    records: Iterable[tuple[int, int, int]], block_limit: Optional[int]
) -> list[tuple[int, Blocks]]:
    """``(object, dba, slot)`` records -> ``[(object, blocks)]`` groups."""
    by_object: dict[int, dict[int, set[int]]] = {}
    for object_id, dba, slot in records:
        by_object.setdefault(object_id, {}).setdefault(dba, set()).add(slot)
    groups = []
    for object_id in sorted(by_object):
        blocks = by_object[object_id]
        dbas = sorted(blocks)
        step = block_limit or len(dbas)
        for i in range(0, len(dbas), step):
            groups.append(
                (
                    object_id,
                    {
                        dba: ()
                        if min(blocks[dba]) < 0
                        else tuple(sorted(blocks[dba]))
                        for dba in dbas[i : i + step]
                    },
                )
            )
    return groups


@dataclass(eq=False)
class NaiveUnit:
    object_id: int
    tenant: int
    covered: tuple[int, ...]
    captured: frozenset[tuple[int, int]]
    snapshot: int
    rows: set = field(default_factory=set)
    blocks: set = field(default_factory=set)
    #: (dba, slot) not captured -> the highest commitSCN invalidating it
    parked: dict = field(default_factory=dict)
    last_scn: int = 0
    fully: bool = False
    dropped: bool = False

    def touch(self, scn: int) -> None:
        self.last_scn = max(self.last_scn, scn)


class NaiveStore:
    def __init__(self, tenants: dict[int, int]) -> None:
        #: enabled object -> tenant
        self.tenants = tenants
        self.units: list[NaiveUnit] = []
        #: (object, dba) -> the unit registered last over it
        self.cover: dict[tuple[int, int], NaiveUnit] = {}
        #: (object, dba, slots, scn) parked for want of a unit
        self.pending: list[tuple[int, int, tuple[int, ...], int]] = []
        self.rows_invalidated = 0

    def invalidate(self, object_id, dba, slots, scn) -> None:
        if object_id not in self.tenants:
            return
        unit = self.cover.get((object_id, dba))
        if unit is None or unit.dropped:
            self.pending.append((object_id, dba, slots, scn))
        else:
            self._apply(unit, dba, slots, scn)

    def _apply(self, unit: NaiveUnit, dba, slots, scn) -> None:
        unit.touch(scn)
        if not slots:
            unit.blocks.add(dba)
            self.rows_invalidated += 1
            return
        for slot in slots:
            if (dba, slot) not in unit.captured:
                parked = unit.parked.get((dba, slot), 0)
                unit.parked[dba, slot] = max(parked, scn)
            elif (dba, slot) not in unit.rows:
                unit.rows.add((dba, slot))
                self.rows_invalidated += 1

    def invalidate_tenant(self, tenant, scn) -> None:
        for unit in self.units:
            if unit.tenant == tenant and not unit.dropped:
                unit.touch(scn)
                unit.fully = True

    def register(self, unit: NaiveUnit) -> None:
        still = []
        for record in self.pending:
            object_id, dba, slots, scn = record
            if object_id != unit.object_id or dba not in unit.covered:
                still.append(record)
            elif scn > unit.snapshot:
                self._apply(unit, dba, slots, scn)
        self.pending = still
        replaced = []
        for dba in unit.covered:
            old = self.cover.get((unit.object_id, dba))
            if old is not None and old not in replaced:
                replaced.append(old)
            self.cover[(unit.object_id, dba)] = unit
        for old in replaced:
            self.units.remove(old)
            if old.last_scn <= unit.snapshot:
                continue
            # the swap carries what the outgoing unit knew and the
            # incoming data cannot contain
            if old.fully:
                unit.touch(old.last_scn)
                unit.fully = True
                continue
            for dba in old.blocks:
                if dba in unit.covered:
                    self._apply(unit, dba, (), old.last_scn)
            for dba, slot in sorted(old.rows):
                if dba in unit.covered:
                    self._apply(unit, dba, (slot,), old.last_scn)
            for (dba, slot), scn in sorted(old.parked.items()):
                if scn > unit.snapshot and dba in unit.covered:
                    self._apply(unit, dba, (slot,), scn)
        self.units.append(unit)


class NaiveFlush:
    """Flush nodes one at a time into a :class:`NaiveStore`."""

    def __init__(self, store: NaiveStore, block_limit: Optional[int]) -> None:
        self.store = store
        self.block_limit = block_limit
        #: ("group", object, commitSCN, blocks) / ("coarse", tenant, scn)
        self.events: list[tuple] = []
        self.groups_created = 0
        self.coarse_flushes = 0

    def flush_node(self, commit_scn, records, coarse_tenant=None) -> None:
        if coarse_tenant is not None:
            self.store.invalidate_tenant(coarse_tenant, commit_scn)
            self.coarse_flushes += 1
            self.events.append(("coarse", coarse_tenant, commit_scn))
            return
        for object_id, blocks in naive_groups(records, self.block_limit):
            for dba, slots in blocks.items():
                self.store.invalidate(object_id, dba, slots, commit_scn)
            self.groups_created += 1
            self.events.append(("group", object_id, commit_scn, blocks))
