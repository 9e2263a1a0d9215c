"""The In-Memory Scan Engine.

Evaluates predicates over IMCUs with vectorised kernels and min/max
storage-index pruning, and *reconciles* each IMCU against its SMU: rows
marked invalid -- and rows that appeared in covered blocks after the IMCU's
snapshot ("edge" rows) -- are fetched from the row store through Consistent
Read instead (paper, II-B: "the In-Memory Scan Engine reconciles the IMCU
data with the SMU to ensure that invalid or stale data is not delivered
from the IMCS, but delivered from the database buffer cache").

Correctness precondition (asserted by callers): every invalidation with
commitSCN <= the scan snapshot has been flushed to the SMUs.  On the
primary the commit hook does this synchronously; on the standby the
QuerySCN-advancement protocol guarantees it for snapshot == QuerySCN.

The scan returns a simulated cost alongside the rows: columnar rows cost
``IMCS_COST_PER_ROW`` and row-store fallback rows cost
``ROWSTORE_COST_PER_ROW`` -- a ~400x per-row gap, which is the cost-model
expression of the paper's "orders of magnitude" scan speedup.
"""

from __future__ import annotations

import operator

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.common.ids import DBA
from repro.common.scn import SCN
from repro.imcs.expressions import RowResolver
from repro.imcs.imcu import IMCU
from repro.imcs.smu import SMU
from repro.imcs.store import InMemoryColumnStore
from repro.rowstore.cr import TransactionView, visible_values_batch
from repro.rowstore.table import Table
from repro.rowstore.values import Schema

#: Simulated seconds per row scanned through the columnar path.
IMCS_COST_PER_ROW = 5e-9
#: Simulated seconds per row scanned through the row-format path.
ROWSTORE_COST_PER_ROW = 2e-6


@dataclass(frozen=True, slots=True)
class Predicate:
    """A single-column filter predicate.

    ``op`` is one of '=', '!=', '<', '<=', '>', '>=', 'between',
    'is_null', 'is_not_null'.
    """

    column: str
    op: str
    value: object = None
    value2: object = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def eq(cls, column: str, value) -> "Predicate":
        return cls(column, "=", value)

    @classmethod
    def ne(cls, column: str, value) -> "Predicate":
        return cls(column, "!=", value)

    @classmethod
    def lt(cls, column: str, value) -> "Predicate":
        return cls(column, "<", value)

    @classmethod
    def le(cls, column: str, value) -> "Predicate":
        return cls(column, "<=", value)

    @classmethod
    def gt(cls, column: str, value) -> "Predicate":
        return cls(column, ">", value)

    @classmethod
    def ge(cls, column: str, value) -> "Predicate":
        return cls(column, ">=", value)

    @classmethod
    def between(cls, column: str, lo, hi) -> "Predicate":
        return cls(column, "between", lo, hi)

    @classmethod
    def is_null(cls, column: str) -> "Predicate":
        return cls(column, "is_null")

    @classmethod
    def is_not_null(cls, column: str) -> "Predicate":
        return cls(column, "is_not_null")

    # -- vectorised evaluation -------------------------------------------
    def eval_mask(self, imcu: IMCU) -> np.ndarray:
        cu = imcu.column(self.column)
        if self.op == "=":
            return cu.eq_mask(self.value)
        if self.op == "!=":
            return ~cu.eq_mask(self.value) & ~cu.null_mask()
        if self.op == "<":
            return cu.range_mask(None, self.value, hi_inclusive=False)
        if self.op == "<=":
            return cu.range_mask(None, self.value, hi_inclusive=True)
        if self.op == ">":
            return cu.range_mask(self.value, None, lo_inclusive=False)
        if self.op == ">=":
            return cu.range_mask(self.value, None, lo_inclusive=True)
        if self.op == "between":
            return cu.range_mask(self.value, self.value2)
        if self.op == "is_null":
            return cu.null_mask()
        if self.op == "is_not_null":
            return ~cu.null_mask()
        raise ValueError(f"unknown predicate op {self.op!r}")

    # -- row-at-a-time evaluation ------------------------------------------
    def row_matcher(self):
        """Compile to a direct closure: the op is dispatched once here,
        not once per reconcile row (see :class:`_CompiledScan`)."""
        op, value = self.op, self.value
        if op == "=":
            return lambda v: v is not None and v == value
        if op == "!=":
            return lambda v: v is not None and v != value
        if op == "<":
            return lambda v: v is not None and v < value
        if op == "<=":
            return lambda v: v is not None and v <= value
        if op == ">":
            return lambda v: v is not None and v > value
        if op == ">=":
            return lambda v: v is not None and v >= value
        if op == "between":
            value2 = self.value2
            return lambda v: v is not None and value <= v <= value2
        if op == "is_null":
            return lambda v: v is None
        if op == "is_not_null":
            return lambda v: v is not None
        raise ValueError(f"unknown predicate op {op!r}")

    # -- storage-index pruning ----------------------------------------------
    def can_prune(self, imcu: IMCU) -> bool:
        """True if the IMCU's min/max proves no row can match."""
        if self.op == "=":  # a value of the other kind matches no row
            low = imcu.column(self.column).min_value
            if None not in (low, self.value) and (
                isinstance(low, str) != isinstance(self.value, str)
            ):
                return True
            return imcu.prune_range(self.column, self.value, self.value)
        if self.op in ("<", "<="):
            return imcu.prune_range(self.column, None, self.value)
        if self.op in (">", ">="):
            return imcu.prune_range(self.column, self.value, None)
        if self.op == "between":
            return imcu.prune_range(self.column, self.value, self.value2)
        return False


@dataclass(slots=True)
class ScanStats:
    imcs_rows: int = 0
    rowstore_rows: int = 0
    fallback_rows: int = 0  # subset of rowstore_rows caused by SMU reconcile
    imcus_used: int = 0
    imcus_pruned: int = 0
    imcus_unusable: int = 0
    cost_seconds: float = 0.0

    def merge(self, other: "ScanStats") -> None:
        self.imcs_rows += other.imcs_rows
        self.rowstore_rows += other.rowstore_rows
        self.fallback_rows += other.fallback_rows
        self.imcus_used += other.imcus_used
        self.imcus_pruned += other.imcus_pruned
        self.imcus_unusable += other.imcus_unusable
        self.cost_seconds += other.cost_seconds


@dataclass(slots=True)
class ScanResult:
    rows: list[tuple] = field(default_factory=list)
    stats: ScanStats = field(default_factory=ScanStats)


@dataclass(slots=True)
class ScanMorsel:
    """One independently-runnable slice of a scan (morsel-driven
    parallelism): an IMCU+reconcile unit, a chunk of row-format blocks,
    or a stats-only placeholder.  ``run()`` produces a partial
    :class:`ScanResult`; merging all partials *in plan order* reproduces
    the serial :meth:`ScanEngine.scan` exactly (rows and stats)."""

    kind: str  # "imcu" | "rowstore" | "stats"
    description: str
    run: Callable[[], ScanResult]


def unit_matched_positions(
    unit, valid: np.ndarray, predicates: list[Predicate]
) -> np.ndarray:
    """Positions of SMU-valid rows matching every predicate.

    ``unit`` is an IMCU (anything with ``.column(name)``).  Predicate
    masks are freshly allocated so the combine is in-place; ``valid`` is
    only ever a read operand.  The serial scan and every morsel run this
    one kernel, which is what makes parallel == serial row-for-row.
    """
    mask = None
    for predicate in predicates:
        predicate_mask = predicate.eval_mask(unit)
        if mask is None:
            mask = predicate_mask
        else:
            mask &= predicate_mask
    if mask is None:
        matched = valid
    else:
        mask &= valid
        matched = mask
    return np.flatnonzero(matched)


def merge_partials(partials: list[ScanResult]) -> ScanResult:
    """Merge morsel partials (in plan order) into one result."""
    merged = ScanResult()
    for partial in partials:
        merged.rows.extend(partial.rows)
        merged.stats.merge(partial.stats)
    return merged


def _match_any_row(values: tuple) -> bool:
    """Predicate-free scan: every visible row matches."""
    return True


class _CompiledScan:
    """Per-partition compiled scan state.

    Predicates and the projection list are resolved against the schema
    *once per scan* -- each reconcile row then pays only a tuple index per
    predicate instead of a name -> index lookup, and the projection is a
    single C-level ``itemgetter`` when no expression is involved.
    """

    __slots__ = (
        "predicates", "names", "needed", "needed_set",
        "matches", "project", "memo",
    )

    def __init__(
        self,
        resolver: RowResolver,
        predicates: list[Predicate],
        names: list[str],
        schema: Schema,
    ) -> None:
        self.predicates = predicates
        self.names = names
        #: writer -> commitSCN: one memo for every Consistent Read call of
        #: this scan, gone with it (``visible_values_batch`` has the rule)
        self.memo: dict = {}
        self.needed = list(dict.fromkeys(
            [p.column for p in predicates] + list(names)
        ))
        self.needed_set = frozenset(self.needed)
        expressions = resolver.expressions
        # accessor is a column position (plain column) or a closure
        # (In-Memory Expression evaluated against the stored row)
        pairs = []
        for predicate in predicates:
            expression = (
                expressions.get(predicate.column)
                if expressions is not None else None
            )
            if expression is not None:
                accessor = (
                    lambda values, e=expression, s=schema: e.evaluate(values, s)
                )
            else:
                accessor = schema.column_index(predicate.column)
            pairs.append((accessor, predicate.row_matcher()))
        if not pairs:
            self.matches = _match_any_row
        elif len(pairs) == 1:
            accessor, match = pairs[0]
            if callable(accessor):
                self.matches = (
                    lambda values, a=accessor, m=match: m(a(values))
                )
            else:
                self.matches = (
                    lambda values, i=accessor, m=match: m(values[i])
                )
        else:
            steps = [
                (a if callable(a) else operator.itemgetter(a), m)
                for a, m in pairs
            ]

            def matches(values, steps=steps):
                for accessor, match in steps:
                    if not match(accessor(values)):
                        return False
                return True

            self.matches = matches
        if expressions is not None and any(
            resolver.is_expression(name) for name in names
        ):  # expression values: resolve per row
            self.project = lambda values: resolver.project(values, names)
        elif len(names) == 1:
            index = schema.column_index(names[0])
            self.project = lambda values, i=index: (values[i],)
        else:
            self.project = operator.itemgetter(
                *[schema.column_index(name) for name in names]
            )


class ScanEngine:
    """Scans tables through the IMCS with row-store reconciliation."""

    def __init__(
        self,
        imcs: Optional[InMemoryColumnStore],
        txns: TransactionView,
    ) -> None:
        self.imcs = imcs
        self.txns = txns

    # ------------------------------------------------------------------
    def scan(
        self,
        table: Table,
        snapshot_scn: SCN,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
        on_imcu_matches=None,
    ) -> ScanResult:
        """Filter + project scan at a snapshot.

        Uses the IMCS for every partition enabled and populated here;
        everything else goes through the row-format path.

        ``on_imcu_matches(imcu, positions) -> bool`` is the aggregation
        push-down hook (see :mod:`repro.imcs.aggregate`): when it returns
        True the matching IMCU positions are consumed by the hook instead
        of being materialised into ``result.rows`` -- reconcile-path rows
        still come back as tuples.
        """
        predicates = predicates or []
        names = columns or [c.name for c in table.schema.live_columns]
        result = ScanResult()
        part_names = partitions if partitions is not None else list(table.partitions)
        for pname in part_names:
            partition = table.partition(pname)
            self._scan_partition(
                table, partition.object_id, snapshot_scn,
                predicates, names, result, on_imcu_matches,
            )
        return result

    # ------------------------------------------------------------------
    def plan_morsels(
        self,
        table: Table,
        snapshot_scn: SCN,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
        on_imcu_matches=None,
        rowstore_blocks_per_morsel: int = 16,
    ) -> list[ScanMorsel]:
        """Split the scan into independently-runnable morsels.

        Mirrors :meth:`scan`'s per-partition walk: one morsel per usable
        SMU (columnar scan + its reconcile tail), a stats-only morsel
        counting units whose IMCU snapshot postdates the query snapshot,
        and chunked morsels over the blocks with no columnar coverage.
        Safe to execute while redo apply proceeds: the scan filters by
        ``snapshot_scn`` through Consistent Read, and any invalidation
        flushed after planning only affects commits beyond the snapshot.
        """
        predicates = predicates or []
        names = columns or [c.name for c in table.schema.live_columns]
        part_names = (
            partitions if partitions is not None else list(table.partitions)
        )
        morsels: list[ScanMorsel] = []
        for pname in part_names:
            partition = table.partition(pname)
            segment = partition.segment
            im_segment, compiled = self._compile(
                table, partition.object_id, predicates, names
            )
            store = segment._store

            handled_dbas: set[DBA] = set()
            unusable = 0
            if im_segment is not None:
                for smu in im_segment.live_units():
                    if smu.imcu.snapshot_scn > snapshot_scn:
                        unusable += 1
                        continue
                    handled_dbas.update(smu.imcu.covered_dbas)

                    def run_unit(smu=smu, compiled=compiled, segment=segment):
                        partial = ScanResult()
                        self._scan_unit(
                            table, segment, smu, snapshot_scn, compiled,
                            partial, on_imcu_matches,
                        )
                        return partial

                    morsels.append(ScanMorsel(
                        "imcu", f"{pname}/imcu@{smu.imcu.snapshot_scn}",
                        run_unit,
                    ))
            if unusable:
                def run_stats(unusable=unusable):
                    partial = ScanResult()
                    partial.stats.imcus_unusable += unusable
                    return partial

                morsels.append(
                    ScanMorsel("stats", f"{pname}/unusable", run_stats)
                )

            leftover = [d for d in segment.dbas if d not in handled_dbas]
            for i in range(0, len(leftover), rowstore_blocks_per_morsel):
                chunk = leftover[i:i + rowstore_blocks_per_morsel]

                def run_rowstore(chunk=chunk, compiled=compiled, store=store):
                    partial = ScanResult()
                    self._rowstore_scan_dbas(
                        table, store, chunk, snapshot_scn, compiled,
                        partial, fallback=False,
                    )
                    return partial

                morsels.append(ScanMorsel(
                    "rowstore",
                    f"{pname}/rowstore[{i}:{i + len(chunk)}]",
                    run_rowstore,
                ))
        return morsels

    # ------------------------------------------------------------------
    def _compile(self, table, object_id, predicates, names):
        """One partition's ``(in-memory segment or None, compiled scan)``:
        columns resolve once per scan, every reconcile row reuses the
        accessors, and the scan's commitSCN memo is made with them."""
        im_segment = None
        if self.imcs is not None and self.imcs.is_enabled(object_id):
            im_segment = self.imcs.segment(object_id)
        expressions = (
            im_segment.expressions
            if im_segment is not None and len(im_segment.expressions)
            else None
        )
        resolver = RowResolver(table.schema, expressions)
        return im_segment, _CompiledScan(
            resolver, predicates, names, table.schema
        )

    def _scan_partition(
        self, table, object_id, snapshot_scn, predicates, names, result,
        on_imcu_matches=None,
    ) -> None:
        segment = table.partition_by_object_id(object_id).segment
        im_segment, compiled = self._compile(
            table, object_id, predicates, names
        )
        store = segment._store

        handled_dbas: set[DBA] = set()
        if im_segment is not None:
            for smu in im_segment.live_units():
                if smu.imcu.snapshot_scn > snapshot_scn:
                    # IMCU is newer than the query snapshot: unusable.
                    result.stats.imcus_unusable += 1
                    continue
                handled_dbas.update(smu.imcu.covered_dbas)
                self._scan_unit(
                    table, segment, smu, snapshot_scn, compiled, result,
                    on_imcu_matches,
                )

        # Blocks with no usable columnar coverage: row-format scan.
        leftover = [d for d in segment.dbas if d not in handled_dbas]
        self._rowstore_scan_dbas(
            table, store, leftover, snapshot_scn, compiled, result,
            fallback=False,
        )

    # ------------------------------------------------------------------
    def _scan_unit(
        self, table, segment, smu: SMU, snapshot_scn,
        compiled: _CompiledScan, result, on_imcu_matches=None,
    ) -> None:
        imcu = smu.imcu
        if not smu.serves(compiled.needed_set):
            result.stats.imcus_unusable += 1
            self._rowstore_scan_dbas(
                table, segment._store, imcu.covered_dbas, snapshot_scn,
                compiled, result, fallback=True,
            )
            return

        smu.pin()
        try:
            # 1. storage-index pruning
            valid = smu.valid_row_mask()
            predicates = compiled.predicates
            if any(p.can_prune(imcu) for p in predicates):
                # min/max proves no *captured* row matches; invalid and
                # edge rows below may still match their current values.
                result.stats.imcus_pruned += 1
                matched_positions = np.zeros(0, dtype=np.int64)
            else:
                matched_positions = unit_matched_positions(
                    imcu, valid, predicates
                )
                result.stats.imcus_used += 1
                result.stats.imcs_rows += imcu.n_rows
                result.stats.cost_seconds += IMCS_COST_PER_ROW * imcu.n_rows

            # 2. matching valid rows: hand to the push-down hook, or
            #    project straight from the IMCU
            if on_imcu_matches is not None and on_imcu_matches(
                imcu, matched_positions
            ):
                pass  # consumed vectorially (aggregation push-down)
            else:
                result.rows.extend(
                    imcu.project_rows(matched_positions, compiled.names)
                )

            self._reconcile_unit(
                table, segment, smu, snapshot_scn, compiled, result
            )
        finally:
            smu.unpin()

    def _reconcile_unit(
        self, table, segment, smu: SMU, snapshot_scn,
        compiled: _CompiledScan, result,
    ) -> None:
        """Row-store tail of one unit scan: its invalid rows (the SMU
        keeps the DBA grouping cached), then its edge rows -- slots added
        to covered blocks after the snapshot -- in one CR pass.

        The pass is kept as the SMU's tail image, keyed by the epoch, the
        snapshot, the segment's TRUNCATE SCN and the grown edge blocks:
        every later query at that QuerySCN skips the gather and the walk
        but pays the same touches and row cost (DESIGN.md §9).

        Caller holds the SMU pin.
        """
        store = segment._store
        edges = [
            (dba, block, range(captured, block.used_slots))
            for dba, block, captured in smu.imcu.edge_blocks(store)
        ]
        # each edge range ends at its block's used_slots
        key = (snapshot_scn, segment.truncate_scn, edges)
        blocks, visible = smu.tail_image(key)
        if visible is None:
            blocks = [
                (dba, store.get_optional(dba), slots)
                for dba, slots in smu.invalid_slots_by_dba().items()
            ] + edges
        visible = self._fetch_rows(
            table, blocks, snapshot_scn, compiled, result,
            fallback=True, visible=visible,
        )
        smu.keep_tail_image(key, blocks, visible)

    def _rowstore_scan_dbas(
        self, table, store, dbas, snapshot_scn,
        compiled: _CompiledScan, result, fallback,
    ) -> None:
        self._fetch_rows(
            table,
            [
                (dba, block, range(block.used_slots))
                for dba in dbas
                if (block := store.get_optional(dba)) is not None
            ],
            snapshot_scn, compiled, result, fallback,
        )

    def _fetch_rows(
        self, table, blocks, snapshot_scn,
        compiled: _CompiledScan, result, fallback, visible=None,
    ) -> list:
        """Every row-store row of one scan step: ``blocks`` is ``(dba,
        block, slots)`` triples (``block`` None when the store lost it).

        The buffer cache and the row cost are charged block by block, in
        order -- ``cost_seconds`` is a float sum that feeds sim time --
        and the chains are then walked in one Consistent Read pass under
        the scan's one commitSCN memo, unless ``visible`` is that walk's
        answer already (a tail image).  Returns the answer.  The counters
        count slots asked for, tombstones and slots past a wiped block's
        end included.
        """
        stats = result.stats
        cache = table.buffer_cache
        cost = stats.cost_seconds
        work = []
        for dba, block, slots in blocks:
            if cache is not None:
                cost += cache.touch(dba)
            if block is not None:
                work.append((block, slots))
                cost += ROWSTORE_COST_PER_ROW * len(slots)
        stats.cost_seconds = cost
        if not work:
            return []
        if visible is None:
            visible = visible_values_batch(
                work, snapshot_scn, self.txns, compiled.memo
            )
        stats.rowstore_rows += len(visible)
        if fallback:
            stats.fallback_rows += len(visible)
        matches = compiled.matches
        project = compiled.project
        result.rows.extend([
            project(values) for values in visible
            if values is not None and matches(values)
        ])
        return visible
