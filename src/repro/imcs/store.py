"""The In-Memory Column Store: pool, registry and invalidation routing.

One :class:`InMemoryColumnStore` exists per database instance.  Objects
(table partitions) are *enabled* for in-memory, then background population
builds IMCU/SMU pairs covering their DBA ranges (see ``population.py``).

A critical interlock lives here.  Population and invalidation run
concurrently, so an invalidation can arrive for a DBA range whose IMCU is
still being built (the paper, III-B: "it is possible that the relevant SMU
has not been created yet").  Invalidations that find no SMU are parked in a
per-object *pending* list; when a unit registers, pending records newer
than its snapshot SCN are applied to the fresh SMU before it becomes
scannable.  Records at or below the snapshot are already reflected in the
IMCU's data (population reads through Consistent Read) -- applying only the
newer ones keeps invalidation minimal, and applying too many would still be
safe (invalidation is monotone).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, KeysView, Optional, Sequence

import numpy as np

from repro import obs
from repro.common.errors import NotInMemoryError
from repro.common.ids import DBA, ObjectId, TenantId
from repro.common.scn import NULL_SCN, SCN
from repro.imcs.expressions import Expression, ExpressionSet
from repro.imcs.imcu import IMCU, ROW_KEY_SHIFT, row_keys
from repro.imcs.smu import SMU
from repro.rowstore.table import Partition, Table

_SLOT_MASK = (1 << ROW_KEY_SHIFT) - 1


@dataclass(slots=True)
class InvalidationGroup:
    """A batch of invalidations for one object, applied at one commitSCN.

    ``keys`` are the invalidated rows as sorted, distinct
    :func:`~repro.imcs.imcu.row_keys`; ``whole_blocks`` the sorted DBAs
    invalidated wholesale (none of whose rows appear in ``keys``).
    Groups are the unit of routing -- local application or one
    interconnect message entry on RAC -- and of listener notification.
    """

    object_id: ObjectId
    tenant: TenantId
    commit_scn: SCN
    keys: list[int]
    whole_blocks: list[DBA]

    @property
    def blocks(self) -> dict[DBA, tuple[int, ...]]:
        """DBA -> tuple of slots (empty tuple = whole block), in DBA
        order: the group as readers that walk it block by block see it."""
        out: dict[DBA, list[int]] = {dba: [] for dba in self.whole_blocks}
        for key in self.keys:
            out.setdefault(key >> ROW_KEY_SHIFT, []).append(key & _SLOT_MASK)
        return {dba: tuple(out[dba]) for dba in sorted(out)}


@dataclass(slots=True)
class _PendingInvalidation:
    """Invalidations of one block parked for want of a unit."""

    dba: DBA
    #: Row keys, or None for the whole block.
    keys: Optional[list[int]]
    #: Each key's own commitSCN (the whole block's one): a unit registering
    #: later applies only what is newer than its data.
    scns: list[SCN]


@dataclass(slots=True)
class InMemorySegment:
    """In-memory enablement metadata for one object (table partition)."""

    table: Table
    partition: Partition
    inmemory_columns: Optional[list[str]] = None
    priority: int = 0
    units: list[SMU] = field(default_factory=list)
    dba_to_unit: dict[DBA, SMU] = field(default_factory=dict)
    pending: list[_PendingInvalidation] = field(default_factory=list)
    #: In-Memory Expressions materialised into this object's IMCUs.
    expressions: ExpressionSet = field(default_factory=ExpressionSet)

    @property
    def object_id(self) -> ObjectId:
        return self.partition.object_id

    @property
    def tenant(self) -> TenantId:
        return self.table.tenant

    def live_units(self) -> list[SMU]:
        return [smu for smu in self.units if not smu.dropped]


class InMemoryColumnStore:
    """Registry of enabled objects and their IMCU/SMU pairs."""

    def __init__(self, pool_size_bytes: Optional[int] = None) -> None:
        self.pool_size_bytes = pool_size_bytes
        self._segments: dict[ObjectId, InMemorySegment] = {}
        # statistics
        self.rows_invalidated = 0
        self.coarse_invalidations = 0
        obs.bind(self, {
            "rows_invalidated": "imcs.rows_invalidated",
            "coarse_invalidations": "imcs.coarse_invalidations",
        })

    # ------------------------------------------------------------------
    # enablement
    # ------------------------------------------------------------------
    def enable(
        self,
        table: Table,
        partition_name: Optional[str] = None,
        columns: Optional[list[str]] = None,
        priority: int = 0,
    ) -> InMemorySegment:
        """Enable one partition (or every partition) for in-memory."""
        names = (
            [partition_name] if partition_name is not None
            else list(table.partitions)
        )
        segment = None
        for name in names:
            partition = table.partition(name)
            segment = InMemorySegment(
                table=table,
                partition=partition,
                inmemory_columns=columns,
                priority=priority,
            )
            self._segments[partition.object_id] = segment
        assert segment is not None
        return segment

    def add_expression(
        self, object_id: ObjectId, expression: Expression
    ) -> None:
        """Register an In-Memory Expression for one object.

        Existing IMCUs lack the materialised column, so they are dropped;
        repopulation rebuilds them with the expression included.
        """
        segment = self.segment(object_id)
        segment.expressions.add(expression)
        self.drop_units(object_id)

    def disable(self, object_id: ObjectId) -> None:
        """ALTER ... NO INMEMORY: drop units and forget the object."""
        self.drop_units(object_id)
        self._segments.pop(object_id, None)

    def is_enabled(self, object_id: ObjectId) -> bool:
        return object_id in self._segments

    @property
    def enabled_object_ids(self) -> KeysView[ObjectId]:
        """The enabled object ids, as a live view: the miner's filter is
        one ``in`` per data CV."""
        return self._segments.keys()

    def segment(self, object_id: ObjectId) -> InMemorySegment:
        try:
            return self._segments[object_id]
        except KeyError:
            raise NotInMemoryError(f"object {object_id} is not in-memory")

    def segments(self) -> Iterator[InMemorySegment]:
        return iter(list(self._segments.values()))

    # ------------------------------------------------------------------
    # unit registration / replacement (population, repopulation)
    # ------------------------------------------------------------------
    def register_unit(self, imcu: IMCU) -> SMU:
        """Install a freshly built IMCU; returns its new SMU.

        Applies pending invalidations newer than the IMCU's snapshot, then
        indexes its DBA coverage (replacing any older unit over the same
        range -- repopulation swap).
        """
        smu = SMU(imcu)
        # covered + at or below the snapshot: already in the IMCU's data
        self._install(smu, pending_above=imcu.snapshot_scn)
        return smu

    def _install(self, smu: SMU, pending_above: SCN) -> None:
        """Apply the covered pending invalidations newer than
        ``pending_above`` to ``smu``, then index its DBA coverage."""
        imcu = smu.imcu
        segment = self.segment(imcu.object_id)
        still_pending = []
        #: distinct keys, each with its highest commitSCN
        rows: dict[int, SCN] = {}
        for record in segment.pending:
            if not imcu.covers_dba(record.dba):
                still_pending.append(record)
            elif record.keys is None:
                (scn,) = record.scns
                if scn > pending_above:
                    smu.invalidate_block(record.dba, scn)
                    self.rows_invalidated += 1
            else:
                for key, scn in zip(record.keys, record.scns):
                    if scn > pending_above and scn > rows.get(key, NULL_SCN):
                        rows[key] = scn
        segment.pending = still_pending
        if rows:
            scns = list(rows.values())
            self.rows_invalidated += smu.invalidate_keys(
                list(rows), max(scns), scns
            )

        replaced: dict[int, SMU] = {}
        for dba in imcu.covered_dbas:
            old = segment.dba_to_unit.get(dba)
            if old is not None:
                replaced.setdefault(id(old), old)
            segment.dba_to_unit[dba] = smu
        for old in replaced.values():
            self._carry_invalidations(old, smu)
        if replaced:
            segment.units = [
                unit for unit in segment.units if id(unit) not in replaced
            ]
        segment.units.append(smu)

    def _carry_invalidations(self, old: SMU, smu: SMU) -> None:
        """Preserve invalidations a repopulation swap would otherwise lose.

        The incoming IMCU was built at a snapshot captured *before* the
        swap; any invalidation the outgoing unit recorded after that
        snapshot describes a change the new data cannot contain.  The SMU
        tracks a boolean mask plus the highest invalidation SCN, so when
        that SCN exceeds the new snapshot the old unit's mask is carried
        over at its exact granularity -- row-level bits as one
        :meth:`SMU.invalidate_keys` call, block-level records as
        whole blocks (they may cover slots the old unit never captured).
        The rows the old unit never captured were parked with their own
        commitSCN (:attr:`SMU.uncaptured`); those newer than the new
        snapshot move across the same way.  Extra invalid rows merely fall
        back to the row store, while a missed one would serve stale data
        forever.

        Only a genuinely coarse outgoing unit (``fully_invalid``: the
        per-row detail does not exist) coarse-invalidates the swapped-in
        IMCU; everything else keeps the new population usable under
        concurrent DML.
        """
        if old.last_invalidation_scn <= smu.imcu.snapshot_scn:
            return
        scn = old.last_invalidation_scn
        if old.fully_invalid:
            # No per-row detail survives a coarse invalidation: rows the
            # new IMCU captured beyond the old snapshot could hide changes
            # the coarse event covered, so the whole unit must go.
            smu.invalidate_fully(scn)
            return
        for dba in old.invalid_blocks:
            if smu.imcu.covers_dba(dba):
                smu.invalidate_block(dba, scn)
                self.rows_invalidated += 1
        keys = old.invalid_row_keys()
        keys = keys[np.isin(keys >> ROW_KEY_SHIFT, smu.imcu.covered_dbas)]
        if keys.size:
            self.rows_invalidated += smu.invalidate_keys(keys, scn)
        # slots the old unit never captured: the new one may have, at a
        # snapshot older than the change -- invalid there, else parked again
        parked = sorted(
            (key, key_scn) for key, key_scn in old.uncaptured.items()
            if key_scn > smu.imcu.snapshot_scn
            and smu.imcu.covers_dba(key >> ROW_KEY_SHIFT)
        )
        if parked:
            keys, scns = np.array(parked, dtype=np.int64).T
            self.rows_invalidated += smu.invalidate_keys(
                keys, int(scns.max()), scns
            )

    def restore_unit(
        self,
        imcu: IMCU,
        invalid_rows,
        invalid_blocks,
        fully_invalid: bool,
        last_invalidation_scn: SCN,
    ) -> SMU:
        """Reinstall a checkpointed IMCU with its checkpointed validity
        (instant restart, :mod:`repro.restart`).

        Like :meth:`register_unit`, but the SMU is seeded from the
        checkpoint mask first, and *every* covered pending record is
        applied on top -- a restored unit's data is as-of its original
        population snapshot, so no parked record can be assumed already
        reflected in it.
        """
        smu = SMU(imcu)
        smu.restore_validity(
            invalid_rows, invalid_blocks, fully_invalid,
            last_invalidation_scn,
        )
        self._install(smu, pending_above=NULL_SCN)
        return smu

    def drop_units(self, object_id: ObjectId) -> int:
        """Drop every unit of an object (DDL response)."""
        segment = self._segments.get(object_id)
        if segment is None:
            return 0
        dropped = 0
        for smu in segment.units:
            smu.mark_dropped()
            dropped += 1
        segment.units = []
        segment.dba_to_unit = {}
        segment.pending = []
        return dropped

    # ------------------------------------------------------------------
    # invalidation routing
    # ------------------------------------------------------------------
    def invalidate(
        self,
        object_id: ObjectId,
        dba: DBA,
        slots: tuple[int, ...],
        scn: SCN,
    ) -> None:
        """Mark rows (or, with empty ``slots``, a whole block) invalid.

        If the covering unit does not exist yet the record is parked in the
        object's pending list (see module docstring).
        """
        keys = sorted({row_keys(dba, slot) for slot in slots})
        self.invalidate_groups([
            InvalidationGroup(object_id, 0, scn, keys, [] if slots else [dba])
        ])

    def invalidate_groups(self, groups: Sequence[InvalidationGroup]) -> None:
        """Apply invalidation groups -- typically everything one worklink
        drain call gathered -- each at its own commitSCN.

        Per object, every group's rows are resolved together in one pass:
        a row named by several groups keeps its highest commitSCN, and
        each touched SMU gets a single :meth:`SMU.invalidate_keys` call --
        one ``searchsorted``, one epoch bump and one mask write however
        many transactions the drain holds.  Rows and whole blocks without
        a covering unit park in the pending list with their own
        commitSCN.
        """
        by_object: dict[ObjectId, list[InvalidationGroup]] = {}
        for group in groups:
            by_object.setdefault(group.object_id, []).append(group)
        for object_id, of_object in by_object.items():
            segment = self._segments.get(object_id)
            if segment is None:
                continue  # not enabled here: nothing to maintain
            self._invalidate_rows(segment, of_object)
            for group in of_object:
                for dba in group.whole_blocks:
                    self._invalidate_block(segment, dba, group.commit_scn)

    def _invalidate_rows(
        self, segment: InMemorySegment, groups: list[InvalidationGroup]
    ) -> None:
        #: per touched SMU -- or, for want of one, per block: (the SMU,
        #: each distinct key's highest commitSCN)
        targets: dict[tuple[bool, int], tuple[Optional[SMU], dict]] = {}
        dba = None
        for group in groups:
            scn = group.commit_scn
            for key in group.keys:
                if key >> ROW_KEY_SHIFT != dba:
                    dba = key >> ROW_KEY_SHIFT
                    smu = segment.dba_to_unit.get(dba)
                    if smu is None or smu.dropped:
                        rows = targets.setdefault((True, dba), (None, {}))[1]
                    else:
                        rows = targets.setdefault(
                            (False, id(smu)), (smu, {})
                        )[1]
                if scn > rows.get(key, NULL_SCN):
                    rows[key] = scn
        for (__, dba), (smu, rows) in targets.items():
            keys, scns = list(rows), list(rows.values())
            if smu is None:
                segment.pending.append(_PendingInvalidation(dba, keys, scns))
            else:
                self.rows_invalidated += smu.invalidate_keys(
                    keys, max(scns), scns
                )

    def _invalidate_block(
        self, segment: InMemorySegment, dba: DBA, scn: SCN
    ) -> None:
        smu = segment.dba_to_unit.get(dba)
        if smu is None or smu.dropped:
            segment.pending.append(_PendingInvalidation(dba, None, [scn]))
        else:
            smu.invalidate_block(dba, scn)
            self.rows_invalidated += 1

    def invalidate_tenant(self, tenant: TenantId, scn: SCN) -> int:
        """Coarse invalidation (paper, III-E): every IMCU of a tenant."""
        touched = 0
        for segment in self._segments.values():
            if segment.tenant != tenant:
                continue
            for smu in segment.live_units():
                smu.invalidate_fully(scn)
                touched += 1
        if touched:
            self.coarse_invalidations += 1
        return touched

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return sum(
            smu.imcu.memory_bytes
            for segment in self._segments.values()
            for smu in segment.live_units()
        )

    def has_capacity_for(self, extra_bytes: int) -> bool:
        if self.pool_size_bytes is None:
            return True
        return self.used_bytes + extra_bytes <= self.pool_size_bytes

    @property
    def populated_rows(self) -> int:
        return sum(
            smu.imcu.n_rows
            for segment in self._segments.values()
            for smu in segment.live_units()
        )

    def __repr__(self) -> str:
        return (
            f"InMemoryColumnStore(objects={len(self._segments)}, "
            f"rows={self.populated_rows}, bytes={self.used_bytes})"
        )
