"""In-Memory Columnar Units.

An IMCU is a *read-only* columnar snapshot of a DBA range of one segment,
taken at a snapshot SCN under Oracle's Consistent Read model (paper, II-B:
"Population establishes a snapshot SCN for each IMCU, and the IMCU is
loaded with data consistent as of the snapshot SCN").  Once built it never
changes; staleness is tracked next to it in the SMU and fixed by
repopulation (building a replacement IMCU at a newer snapshot).

Besides the column CUs, an IMCU keeps:

* ``row_dbas`` / ``row_slots`` -- the physical address of each captured
  row, in (covered block, slot) order, as two int64 arrays, for mapping
  invalidation records to row positions (``rowids`` materialises them as
  objects on demand, for rowid projection);
* ``captured_slots`` -- per covered block, how many slots existed at the
  snapshot; rows appended later live only in the row store until
  repopulation widens the IMCU ("edge" rows, the effect that limits the
  gain in the paper's update+insert experiment, Fig. 10);
* per-column min/max (the in-memory storage index used for pruning);
* the 2-D blocks its CUs are views of, gathered once per projection.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.common.ids import DBA, ObjectId, RowId, TenantId
from repro.common.scn import SCN
from repro.imcs.compression import (
    ColumnCU,
    _decode_table,
    encode_rows,
    row_matrix,
)
from repro.imcs.expressions import Expression
from repro.rowstore.cr import TransactionView, settled_rows
from repro.rowstore.segment import Segment
from repro.rowstore.values import ColumnType, Schema

if TYPE_CHECKING:
    from repro.imcs.smu import SMU

#: Bits reserved for the slot in a row key.
ROW_KEY_SHIFT = 32


def row_keys(dbas, slots):
    """Row addresses as single integers that order like ``(dba, slot)``:
    slot < rows_per_block << 2**32, so ``dba * 2**32 + slot`` sorts
    lexicographically even for negative dbas.  The flush's invalidation
    groups, the store's pending invalidations and the IMCU's position
    index all speak this key."""
    return (dbas << ROW_KEY_SHIFT) + slots


class IMCU:
    """One read-only columnar unit."""

    _next_id = 1

    def __init__(
        self,
        object_id: ObjectId,
        tenant: TenantId,
        snapshot_scn: SCN,
        captured_slots: dict[DBA, int],
        columns: dict[str, ColumnCU],
        n_rows: Optional[int] = None,
        addresses: Optional[tuple[np.ndarray, np.ndarray]] = None,
        blocks: tuple = (None, None),
    ) -> None:
        self.imcu_id = IMCU._next_id
        IMCU._next_id += 1
        self.object_id = object_id
        self.tenant = tenant
        self.snapshot_scn = snapshot_scn
        # ``addresses`` = the captured rows' (dba, slot) int64 arrays.  A
        # synthetic IMCU (benchmark fixtures) has none; n_rows must then
        # be explicit.
        if addresses is None:
            if n_rows is None:
                raise ValueError("a unit without addresses needs n_rows")
            addresses = (np.zeros(0, np.int64), np.zeros(0, np.int64))
        self.row_dbas, self.row_slots = addresses
        self._rowids: Optional[list[RowId]] = None
        self._n_rows = n_rows if n_rows is not None else len(self.row_dbas)
        #: Rows :meth:`build` gathered from the outgoing unit's buffers
        #: instead of reading and encoding them (delta repopulation).
        self.rows_reused = 0
        self.captured_slots = captured_slots
        self._columns = columns
        # cached geometry (an IMCU is immutable once built)
        self._covered_dbas = tuple(captured_slots)
        self._column_names = frozenset(columns)
        #: Lazily built (dba, slot) -> position index: one sorted key array
        #: covering every captured row, so a whole invalidation group (or
        #: one block, or one row) resolves in a single searchsorted.
        self._key_index: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._open_blocks: Optional[tuple[tuple[DBA, int], ...]] = None
        #: :func:`encode_rows`' blocks; none for a unit of bare CUs
        self._blocks = blocks
        self._projections: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        segment: Segment,
        schema: Schema,
        tenant: TenantId,
        dbas: Sequence[DBA],
        snapshot_scn: SCN,
        txns: TransactionView,
        inmemory_columns: Optional[list[str]] = None,
        expressions: Optional[Sequence[Expression]] = None,
        base: Optional["SMU"] = None,
    ) -> "IMCU":
        """Populate an IMCU for ``dbas`` at ``snapshot_scn``.

        Reads every covered row through Consistent Read, so concurrent
        transactions and not-yet-committed changes are excluded exactly as
        they would be for a query at the snapshot.

        ``base`` is the SMU of the unit this one replaces.  If a scan at
        the snapshot could use that unit, so does the build: every change
        committed at or below a snapshot is in the SMU before the snapshot
        can be taken, so a row it still holds valid is gathered from the
        base's encoded buffers, and only what a scan would reconcile --
        invalid rows, the edge -- is read and encoded.  The unit is
        bit-equal to the one built without a base.
        """
        column_names = (
            inmemory_columns
            if inmemory_columns is not None
            else [c.name for c in schema.live_columns]
        )
        expressions = list(expressions or ())
        names = column_names + [e.name for e in expressions]
        specs = [
            (i, schema.columns[i].ctype is ColumnType.NUMBER)
            for i in schema.positions(tuple(column_names))
        ] + [
            (schema.arity + j, expression.is_numeric)
            for j, expression in enumerate(expressions)
        ]
        if base is not None and not (
            base.imcu.n_rows  # a unit of no rows has nothing to carry
            and base.serves(frozenset(names))
            and base.imcu.snapshot_scn <= snapshot_scn
            and base.imcu.covered_dbas == tuple(dbas)
        ):
            base = None  # what a scan could not use, a build cannot reuse
        return cls._build(
            segment, schema, tenant, dbas, snapshot_scn, txns,
            names, specs, expressions, base,
        )

    @classmethod
    def _build(
        cls, segment, schema, tenant, dbas, snapshot_scn, txns,
        names, specs, expressions, base,
    ) -> "IMCU":
        old = base.imcu if base is not None else None
        if old is not None:
            stale = base.invalid_slots_by_dba()
            holding, counts = np.unique(old.row_dbas, return_counts=True)
            held = dict(zip(holding.tolist(), counts.tolist()))  # rows/block
            gone: list[int] = []  # blocks none of whose base rows survive
        captured_slots: dict[DBA, int] = {}
        rows: list[tuple] = []
        row_blocks: list[int] = []  # ordinal in ``dbas``
        row_slots: list[int] = []
        memo: dict = {}  # per-writer commitSCNs, for this build only
        store = segment._store  # segments and IMCUs share the block store
        for ordinal, dba in enumerate(dbas):
            block = store.get_optional(dba)
            read = None  # every slot
            if old is not None:
                had = old.captured_slots[dba]
                if block is None or block.used_slots < had:
                    gone.append(ordinal)  # missing, or wiped (TRUNCATE) since
                else:
                    # what a scan reconciles: the invalid rows, the edge
                    read = stale.get(dba, [])
                    if held.get(dba, 0) < had:
                        # and a slot the base held no row for (a tombstone
                        # at its snapshot), which no SMU bit stands for
                        at = old.row_slots[old.positions_for_dba(dba)]
                        read = sorted(
                            set(range(had)).difference(at.tolist()).union(read)
                        )
                    read = [*read, *range(had, block.used_slots)]
            if block is None:
                captured_slots[dba] = 0
                continue
            captured_slots[dba], slots, visible = settled_rows(
                block, snapshot_scn, txns, memo, read
            )
            rows += visible
            row_blocks += [ordinal] * len(visible)
            row_slots += slots
        if expressions:  # their values ride behind the row's own
            rows = [
                values + tuple(e.evaluate(values, schema) for e in expressions)
                for values in rows
            ]
        matrix = row_matrix(rows, schema.arity + len(expressions))
        # an expression value no column of its type holds (float64 is exact
        # for ints to 2**53) leaves the expression out of the unit: a scan
        # that needs it reads the row store, as ``SMU.serves`` says
        fit = [
            k for k, (i, number) in enumerate(specs)
            if i < schema.arity or all(map(
                (ColumnType.VARCHAR2, ColumnType.NUMBER)[number].validate,
                matrix[:, i].tolist(),
            ))
        ]
        if len(fit) < len(specs):
            names, specs = [names[k] for k in fit], [specs[k] for k in fit]
        blocks = np.asarray(row_blocks, dtype=np.int64)
        slots = np.asarray(row_slots, dtype=np.int64)
        dba_of = np.asarray(dbas, dtype=np.int64)
        carried = None
        if old is not None:
            # an IMCU's rows lie in (covered block, slot) order: carried
            # and fresh rows interleave by one stable sort on that key
            old_blocks = np.repeat(
                np.arange(len(dbas)), [held.get(dba, 0) for dba in dbas]
            )
            keep = base.valid_row_mask()
            if gone:
                keep = keep & ~np.isin(old_blocks, gone)
            keep = np.flatnonzero(keep)
            # a fresh row's prior: the base's row at the same address
            found, hit = old.locate_keys(row_keys(dba_of[blocks], slots))
            prior = np.full(slots.size, -1, dtype=np.int64)
            prior[hit] = found
            blocks = np.concatenate((old_blocks[keep], blocks))
            slots = np.concatenate((old.row_slots[keep], slots))
            take = np.argsort(row_keys(blocks, slots), kind="stable")
            blocks, slots = blocks[take], slots[take]
            at = np.empty_like(take)
            at[take] = np.arange(take.size)  # where each row landed
            source = np.concatenate((keep, prior))[take]
            carried = (old, names, source, at[keep.size:])
        cus, encoded = encode_rows(matrix, specs, carried)
        unit = cls(
            segment.object_id, tenant, snapshot_scn, captured_slots,
            dict(zip(names, cus)),
            addresses=(dba_of[blocks], slots),
            blocks=encoded,
        )
        if carried is not None:
            unit.rows_reused = int(keep.size)
            if unit._layout() == old._layout():  # its plans read this unit
                unit._projections = dict(old._projections)
        unit.open_blocks(store)  # known from here on: no scan derives it
        return unit

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def covered_dbas(self) -> tuple[DBA, ...]:
        return self._covered_dbas

    def covers_dba(self, dba: DBA) -> bool:
        return dba in self.captured_slots

    def open_blocks(self, store) -> tuple[tuple[DBA, int], ...]:
        """``(dba, captured)`` of the covered blocks that can hold slots
        past the snapshot's ("edge" rows): those captured short of their
        capacity, or missing from ``store`` (the segment's block store).
        Capacity is fixed, a full block never grows and a wiped one only
        shrinks, so ``captured == capacity`` rules an edge out for good
        -- an immutable fact like the key index, derived once (at build;
        on first use for a unit assembled from buffers)."""
        if self._open_blocks is None:
            self._open_blocks = tuple(
                (dba, captured)
                for dba, captured in self.captured_slots.items()
                if (block := store.get_optional(dba)) is None
                or captured < block.capacity
            )
        return self._open_blocks

    def edge_blocks(self, store):
        """``(dba, block, captured)`` of every covered block that holds
        slots past the snapshot's now: what a scan fetches from the row
        store beside the invalid rows, and what repopulation weighs."""
        for dba, captured in self.open_blocks(store):
            block = store.get_optional(dba)
            if block is not None and block.used_slots > captured:
                yield dba, block, captured

    @property
    def rowids(self) -> list[RowId]:
        """Physical address of each captured row, as objects."""
        if self._rowids is None:
            self._rowids = list(
                map(RowId, self.row_dbas.tolist(), self.row_slots.tolist())
            )
        return self._rowids

    def _keys(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted row keys, their row positions)``."""
        if self._key_index is None:
            keys = row_keys(self.row_dbas, self.row_slots)
            order = np.argsort(keys, kind="stable")
            self._key_index = (keys[order], order)
        return self._key_index

    def positions_for_dba(self, dba: DBA) -> np.ndarray:
        """Row positions of every captured row of ``dba`` (slot order)."""
        key_sorted, positions = self._keys()
        lo, hi = np.searchsorted(
            key_sorted, (row_keys(dba, 0), row_keys(dba + 1, 0))
        )
        return positions[lo:hi]

    def locate_keys(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row positions of the captured keys, which keys the IMCU
        captured)`` in one searchsorted pass over the key index."""
        key_sorted, positions = self._keys()
        if key_sorted.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(len(keys), bool)
        idx = key_sorted.searchsorted(keys)
        np.minimum(idx, key_sorted.size - 1, out=idx)
        hit = key_sorted[idx] == keys
        return positions[idx[hit]], hit

    def slots_by_dba(self, positions: np.ndarray) -> dict[DBA, list[int]]:
        """The addresses at ``positions`` grouped DBA -> slot list, both in
        position order."""
        grouped: dict[DBA, list[int]] = {}
        for dba, slot in zip(
            self.row_dbas[positions].tolist(),
            self.row_slots[positions].tolist(),
        ):
            grouped.setdefault(dba, []).append(slot)
        return grouped

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    @property
    def column_name_set(self) -> frozenset[str]:
        return self._column_names

    def column(self, name: str) -> ColumnCU:
        return self._columns[name]

    @cached_property
    def memory_bytes(self) -> int:
        payload = sum(cu.memory_bytes for cu in self._columns.values())
        rowid_bytes = 16 * self.n_rows
        return payload + rowid_bytes

    # ------------------------------------------------------------------
    # storage index
    # ------------------------------------------------------------------
    def prune_range(self, name: str, lo, hi) -> bool:
        """True if the storage index proves no row can match lo<=v<=hi."""
        cu = self._columns.get(name)
        if cu is None or cu.min_value is None:
            return cu is not None  # all-NULL column can never match
        if lo is not None and cu.max_value < lo:
            return True
        if hi is not None and cu.min_value > hi:
            return True
        return False

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------
    def project_rows(
        self, positions: np.ndarray, names: list[str]
    ) -> list[tuple]:
        """Materialise tuples for the given row positions: one 2-D gather
        per block -- NUMBER values cast as ``NumericCU.take`` would, codes
        shifted onto the unit's one decode table -- and one ``take`` per
        column outside them."""
        if len(positions) == 0:
            return []
        rows_n, ints, rows_c, alone, order = self._projection(tuple(names))
        columns: list = []
        if rows_n.size:
            values = self._blocks[0][1][rows_n, positions]
            columns += values[:ints].tolist()  # Python floats
            columns += values[ints:].astype(np.int64).tolist()
        if rows_c.size:
            table, offsets = self._code_table
            codes = self._blocks[1][1][rows_c, positions]
            codes += offsets[rows_c]  # NULL_CODE lands on the None before
            columns += table[codes].tolist()
        if alone:
            cus = list(self._columns.values())
            columns += [cus[k].take(positions) for k in alone]
        return list(zip(*map(columns.__getitem__, order)))

    def _projection(self, names: tuple) -> tuple:
        """How :meth:`project_rows` reads ``names``, once per name list: the
        NUMBER rows of its float-only, then int-only columns; its code
        rows; the positions of the columns that take alone (outside the
        blocks, or with a NULL or both kinds of number); each name's place
        among those columns laid end to end.  A plan holds no state of the
        unit -- no CU, no decode offset -- so a unit merged from this one
        starts with its plans when their :meth:`_layout` agrees."""
        plan = self._projections.get(names)
        if plan is None:
            numbers, codes = self._blocks
            where = {}  # column position -> (group, block row)
            if numbers:
                facts = zip(numbers[0], *numbers[4])
                for j, (k, null, some, every) in enumerate(facts):
                    if not null and (every or not some):
                        where[k] = (int(some), j)
            for j, k in enumerate(codes[0] if codes else ()):
                where[k] = (2, j)
            groups: tuple = ([], [], [], [])  # (name's index, row or column)
            index = dict(zip(self._columns, range(len(self._columns))))
            for i, k in enumerate(map(index.__getitem__, names)):
                group, row = where.get(k, (3, k))
                groups[group].append((i, row))
            rows = [
                np.array([row for __, row in group], np.intp).reshape(-1, 1)
                for group in groups[:3]
            ]
            laid = [i for group in groups for i, __ in group]
            plan = self._projections[names] = (
                np.concatenate(rows[:2]), len(groups[0]), rows[2],
                [k for __, k in groups[3]],
                sorted(range(len(laid)), key=laid.__getitem__),
            )
        return plan

    def _layout(self) -> tuple:
        """What a projection plan depends on: the columns in order, the
        NUMBER block's columns and their facts (the code block holds the
        rest)."""
        numbers = self._blocks[0]
        return self.column_names, numbers and (numbers[0], numbers[4])

    @cached_property
    def _code_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The code block's decode table and row offsets: the one a merge
        kept (:func:`encode_rows`), else built on first use -- its
        DictionaryCUs then decode through views of it."""
        strings, __, kept = self._blocks[1]
        if kept is not None:
            return kept
        cus = list(self._columns.values())
        block = [cus[k] for k in strings]
        table, offsets = _decode_table([cu._dictionary for cu in block])
        for cu, lo in zip(block, offsets):
            cu._decode = table[lo:lo + len(cu._dictionary) + 1]
        return table, np.array(offsets, dtype=np.int32)

    def __repr__(self) -> str:
        return (
            f"IMCU(id={self.imcu_id}, obj={self.object_id}, "
            f"rows={self.n_rows}, scn={self.snapshot_scn})"
        )
