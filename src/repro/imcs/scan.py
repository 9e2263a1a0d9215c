"""The In-Memory Scan Engine.

Evaluates predicates over IMCUs with vectorised kernels and min/max
storage-index pruning, and *reconciles* each IMCU against its SMU: rows
marked invalid -- and rows that appeared in covered blocks after the IMCU's
snapshot ("edge" rows) -- are fetched from the row store through Consistent
Read instead (paper, II-B: "the In-Memory Scan Engine reconciles the IMCU
data with the SMU to ensure that invalid or stale data is not delivered
from the IMCS, but delivered from the database buffer cache").

Correctness precondition (asserted by callers): every invalidation with
commitSCN <= the scan snapshot has been flushed to the SMUs, at no SCN
below the commit it announces.  On the primary every commit does this
synchronously; on the standby the QuerySCN-advancement protocol
guarantees it for snapshot == QuerySCN.

The scan returns a simulated cost alongside the rows: columnar rows cost
``IMCS_COST_PER_ROW`` and row-store fallback rows cost
``ROWSTORE_COST_PER_ROW`` -- a ~400x per-row gap, which is the cost-model
expression of the paper's "orders of magnitude" scan speedup.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.common.ids import DBA
from repro.common.scn import SCN
from repro.imcs.expressions import RowResolver
from repro.imcs.imcu import IMCU
from repro.imcs.smu import NO_ROWS, SMU, TailImage
from repro.imcs.store import InMemoryColumnStore
from repro.rowstore.cr import TransactionView, visible_values_batch
from repro.rowstore.table import Table

#: Simulated seconds per row scanned through the columnar path.
IMCS_COST_PER_ROW = 5e-9
#: Simulated seconds per row scanned through the row-format path.
ROWSTORE_COST_PER_ROW = 2e-6
#: Uncovered blocks per row-store morsel of a planned scan.
ROWSTORE_BLOCKS_PER_MORSEL = 16


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
    #: A comparison with a NULL literal: unknown for every row, so it
    #: matches none.  Only IS [NOT] NULL tests NULL.
    null_bound: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "null_bound",
            self.op not in ("is_null", "is_not_null") and (
                self.value is None
                or (self.op == "between" and self.value2 is None)
            ),
        )

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
    def eval_mask(self, unit) -> np.ndarray:
        """Mask over an IMCU's or a tail image's rows."""
        if self.null_bound:
            return np.zeros(unit.n_rows, dtype=bool)
        cu = unit.column(self.column)
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

    # -- storage-index pruning ----------------------------------------------
    def can_prune(self, imcu: IMCU) -> bool:
        """True if the IMCU's min/max proves no row can match."""
        if self.null_bound:
            return True
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
    unit, valid: Optional[np.ndarray], predicates: list[Predicate]
) -> np.ndarray:
    """Positions of valid rows matching every predicate.

    ``unit`` is an IMCU or a row-store :class:`TailImage`, whose columns
    are CUs too; ``valid`` is the SMU's mask, or None when every row is
    valid.  Predicate masks are freshly allocated so the combine is
    in-place; ``valid`` is only ever a read operand.
    The serial scan and every morsel run this one kernel, which is what
    makes parallel == serial row-for-row.
    """
    mask = None
    for predicate in predicates:
        predicate_mask = predicate.eval_mask(unit)
        if mask is None:
            mask = predicate_mask
        else:
            mask &= predicate_mask
    if mask is None:
        if valid is None:
            return np.arange(unit.n_rows)
        mask = valid
    elif valid is not None:
        mask &= valid
    return mask.nonzero()[0]


class _Charges(list):
    """A morsel's ``cost_seconds`` while it runs: the charges its step
    adds, in order.  Float addition does not associate, so the merge adds
    these, not per-morsel subtotals, to equal the serial scan's sum."""

    def __add__(self, charge: float) -> "_Charges":
        self.append(charge)
        return self

    __iadd__ = __add__


class _Partial(ScanResult):
    __slots__ = ("charges",)  # what the morsel's cost was summed from


def _partial(step, *args) -> ScanResult:
    """Run one scan step into a fresh partial result (a morsel)."""
    partial = _Partial()
    partial.charges = partial.stats.cost_seconds = _Charges()
    step(*args, partial)
    partial.stats.cost_seconds = functools.reduce(
        operator.add, partial.charges, 0.0
    )
    return partial


def _count_unusable(n: int, result: ScanResult) -> None:
    result.stats.imcus_unusable += n


def merge_partials(partials: list[ScanResult]) -> ScanResult:
    """Merge morsel partials (in plan order) into one result."""
    merged = ScanResult()
    for partial in partials:
        merged.rows.extend(partial.rows)
        merged.stats.merge(partial.stats)
    merged.stats.cost_seconds = functools.reduce(
        operator.add,
        itertools.chain.from_iterable(p.charges for p in partials), 0.0,
    )
    return merged


class _CompiledScan:
    """Per-partition compiled scan state.

    Predicates and the projection list are resolved against the schema
    *once per scan*: the projection of row-store rows is a single C-level
    ``itemgetter`` when no expression is involved.  The push-down hook and
    the scan's commitSCN memo live here too.
    """

    __slots__ = (
        "predicates", "names", "needed_set", "resolver", "project", "memo",
        "on_matches",
    )

    def __init__(
        self,
        resolver: RowResolver,
        predicates: list[Predicate],
        names: list[str],
        on_matches=None,
    ) -> None:
        self.predicates = predicates
        self.names = names
        self.resolver = resolver
        self.on_matches = on_matches
        #: writer -> commitSCN: one memo for every Consistent Read call of
        #: this scan, gone with it (``visible_values_batch`` has the rule)
        self.memo: dict = {}
        self.needed_set = frozenset(names).union(p.column for p in predicates)
        schema = resolver.schema
        # an unknown column fails every scan
        schema.positions(tuple(
            p.column for p in predicates
            if not resolver.is_expression(p.column)
        ))
        if resolver.expressions is not None and any(
            resolver.is_expression(name) for name in names
        ):
            # expression values: resolve per row
            self.project = lambda values: resolver.project(values, names)
        elif len(names) == 1:
            index = schema.positions(tuple(names))[0]
            self.project = lambda values, i=index: (values[i],)
        else:
            self.project = operator.itemgetter(
                *schema.positions(tuple(names))
            )

    def matches(self, unit, positions: np.ndarray, result) -> None:
        """Matching rows of an IMCU or a tail image: hand them to the
        push-down hook, else project them -- an IMCU's from its column
        blocks, a tail's from the rows' own tuples."""
        if not positions.size:
            return
        if self.on_matches is not None:
            self.on_matches(unit, positions)
        elif isinstance(unit, IMCU):
            result.rows.extend(unit.project_rows(positions, self.names))
        else:
            rows = unit.rows
            if positions.size < unit.n_rows:  # else every row matched
                rows = map(rows.__getitem__, positions.tolist())
            result.rows.extend(map(self.project, rows))


class ScanEngine:
    """Scans tables through the IMCS with row-store reconciliation."""

    def __init__(
        self,
        imcs: Optional[InMemoryColumnStore],
        txns: TransactionView,
    ) -> None:
        self.imcs = imcs
        self.txns = txns
        #: segment -> (key, blocks no usable unit covers): the key holds
        #: unit ids, never a unit, so no dropped unit outlives its store
        self._uncovered = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    def scan(
        self,
        table: Table,
        snapshot_scn: SCN,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
        on_matches=None,
    ) -> ScanResult:
        """Filter + project scan at a snapshot.

        Uses the IMCS for every partition enabled and populated here;
        everything else goes through the row-format path.

        ``on_matches(unit, positions)`` is the aggregation push-down hook
        (see :mod:`repro.imcs.aggregate`): given, it consumes every match
        instead of ``result.rows``, in scan order -- ``unit`` an IMCU, or
        a :class:`~repro.imcs.smu.TailImage` for row-store rows.
        """
        result = ScanResult()
        for __, segment, compiled, units, unusable, leftover in self._walk(
            table, snapshot_scn, predicates, columns, partitions, on_matches,
        ):
            result.stats.imcus_unusable += unusable
            for smu in units:
                self._scan_unit(
                    table, segment, smu, snapshot_scn, compiled, result
                )
            self._rowstore_scan_dbas(
                table, segment._store, leftover, snapshot_scn, compiled,
                result, fallback=False,
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
        morsels: list[ScanMorsel] = []
        for pname, segment, compiled, units, unusable, leftover in self._walk(
            table, snapshot_scn, predicates, columns, partitions,
        ):
            for smu in units:
                morsels.append(ScanMorsel(
                    "imcu", f"{pname}/imcu@{smu.imcu.snapshot_scn}",
                    functools.partial(
                        _partial, self._scan_unit, table, segment, smu,
                        snapshot_scn, compiled,
                    ),
                ))
            if unusable:
                morsels.append(ScanMorsel(
                    "stats", f"{pname}/unusable",
                    functools.partial(_partial, _count_unusable, unusable),
                ))
            for i in range(0, len(leftover), ROWSTORE_BLOCKS_PER_MORSEL):
                chunk = leftover[i:i + ROWSTORE_BLOCKS_PER_MORSEL]
                morsels.append(ScanMorsel(
                    "rowstore",
                    f"{pname}/rowstore[{i}:{i + len(chunk)}]",
                    functools.partial(
                        _partial, self._rowstore_scan_dbas, table,
                        segment._store, chunk, snapshot_scn, compiled,
                    ),
                ))
        return morsels

    # ------------------------------------------------------------------
    def _walk(
        self, table, snapshot_scn, predicates, columns, partitions,
        on_matches=None,
    ):
        """Per partition: its name, segment and compiled scan (columns
        resolve once, the scan's commitSCN memo is made with them), the
        usable units, the count of units whose IMCU snapshot postdates the
        query snapshot, and the blocks no usable unit covers."""
        predicates = predicates or []
        names = columns or [c.name for c in table.schema.live_columns]
        for pname in (
            partitions if partitions is not None else list(table.partitions)
        ):
            partition = table.partition(pname)
            object_id = partition.object_id
            im_segment = None
            if self.imcs is not None and self.imcs.is_enabled(object_id):
                im_segment = self.imcs.segment(object_id)
            expressions = (
                im_segment.expressions
                if im_segment is not None and len(im_segment.expressions)
                else None
            )
            compiled = _CompiledScan(
                RowResolver(table.schema, expressions), predicates, names,
                on_matches,
            )
            units = [] if im_segment is None else im_segment.live_units()
            usable = [
                smu for smu in units if smu.imcu.snapshot_scn <= snapshot_scn
            ]
            segment = partition.segment
            # between TRUNCATEs a segment only gains blocks, so its block
            # count and TRUNCATE SCN fix its block list
            key = (tuple(smu.imcu.imcu_id for smu in usable),
                   segment.n_blocks, segment.truncate_scn)
            uncovered = self._uncovered.get(segment)
            if uncovered is None or uncovered[0] != key:
                handled: set[DBA] = set()
                for smu in usable:
                    handled.update(smu.imcu.covered_dbas)
                uncovered = self._uncovered[segment] = (
                    key, [dba for dba in segment.dbas if dba not in handled],
                )
            yield (
                pname, segment, compiled, usable, len(units) - len(usable),
                uncovered[1],
            )

    # ------------------------------------------------------------------
    def _scan_unit(
        self, table, segment, smu: SMU, snapshot_scn,
        compiled: _CompiledScan, result,
    ) -> None:
        imcu = smu.imcu
        if not smu.serves(compiled.needed_set):
            result.stats.imcus_unusable += 1
            self._rowstore_scan_dbas(
                table, segment._store, imcu.covered_dbas, snapshot_scn,
                compiled, result, fallback=True,
            )
            return

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

        # 2. matching valid rows
        compiled.matches(imcu, matched_positions, result)

        self._reconcile_unit(
            table, segment, smu, snapshot_scn, compiled, result
        )

    def _reconcile_unit(
        self, table, segment, smu: SMU, snapshot_scn,
        compiled: _CompiledScan, result,
    ) -> None:
        """Row-store tail of one unit scan: its invalid rows (the SMU
        keeps the DBA grouping cached), then its edge rows -- slots added
        to covered blocks after the snapshot -- in one CR pass.

        The pass is kept as the SMU's tail image, keyed by the epoch, the
        snapshot, the segment's TRUNCATE SCN and the grown edge blocks:
        every later query at that QuerySCN skips the gather, the walk and
        the touches, reuses the column vectors earlier ones built, and
        replays the walk's hits and row cost bit for bit.  At a newer
        QuerySCN the image is carried forward: only the rows invalidated
        since and the edge rows are walked (DESIGN.md §9).
        """
        store = segment._store
        edges = [
            (dba, block, range(captured, block.used_slots))
            for dba, block, captured in smu.imcu.edge_blocks(store)
        ]
        # each edge range ends at its block's used_slots
        key = (snapshot_scn, segment.truncate_scn, edges)
        blocks, image = smu.tail_image(key)
        if image is not None:
            self._fetch_rows(
                table, blocks, snapshot_scn, compiled, result,
                fallback=True, carry=None, image=image,
            )
            return
        blocks = [
            (dba, store.get_optional(dba), slots)
            for dba, slots in smu.invalid_slots_by_dba().items()
        ] + edges
        carry = (
            smu, store, len(blocks) - len(edges),
            smu.tail_since(snapshot_scn, segment.truncate_scn),
        )
        image = self._fetch_rows(
            table, blocks, snapshot_scn, compiled, result,
            fallback=True, carry=carry,
        )
        smu.keep_tail_image(key, blocks, image)

    def _rowstore_scan_dbas(
        self, table, store, dbas, snapshot_scn,
        compiled: _CompiledScan, result, fallback=False,
    ) -> None:
        self._fetch_rows(
            table,
            [
                (dba, block, range(block.used_slots))
                for dba in dbas
                if (block := store.get_optional(dba)) is not None
            ],
            snapshot_scn, compiled, result, fallback, None,
        )

    def _fetch_rows(
        self, table, blocks, snapshot_scn,
        compiled: _CompiledScan, result, fallback, carry, image=None,
    ) -> TailImage:
        """Every row-store row of one scan step: ``blocks`` is ``(dba,
        block, slots)`` triples (``block`` None when the store lost it).

        The buffer cache and the row cost are charged block by block, in
        order -- ``cost_seconds`` is a float sum that feeds sim time --
        and the rows are then read by :meth:`_carried`; a tail image
        ``image`` at this very key replays the pass instead: one hit per
        block, then its charges.  The image's rows then run through the
        IMCU's kernel and matches step.  Returns the image.  The counters
        count slots asked for, tombstones and slots past a wiped block's
        end included.
        """
        stats = result.stats
        cache = table.buffer_cache
        if image is not None:
            # the build touched every block and nothing evicts one: each
            # touch is a hit that adds 0.0, so only the row cost is added
            if cache is not None:
                cache.hits += len(blocks)
            stats.cost_seconds = functools.reduce(
                operator.add, image.charges, stats.cost_seconds
            )
        else:
            cost = stats.cost_seconds
            work, charges = [], []
            for dba, block, slots in blocks:
                if cache is not None:
                    cost += cache.touch(dba)
                if block is not None:
                    work.append((block, slots))
                    charge = ROWSTORE_COST_PER_ROW * len(slots)
                    charges.append(charge)
                    cost += charge
            stats.cost_seconds = cost
            if not work:
                return NO_ROWS
            image = self._carried(
                blocks, work, carry, snapshot_scn, compiled, charges
            )
        stats.rowstore_rows += image.slots
        if fallback:
            stats.fallback_rows += image.slots
        if image.n_rows:
            compiled.matches(
                image,
                unit_matched_positions(image, None, compiled.predicates),
                result,
            )
        return image

    def _carried(
        self, blocks, work, carry, snapshot_scn, compiled, charges,
    ) -> TailImage:
        """The rows of ``blocks`` (``work``: their ``(block, slots)``
        pairs) as a tail image, from one Consistent Read pass.  A unit's
        tail passes ``carry``: its SMU and store, how many ``blocks`` hold
        invalid rows (edge rows follow) and :meth:`SMU.tail_since`; with
        an image to carry, only the rows named since and the edge rows
        are walked."""
        prior, whole = None, len(work) == len(blocks)  # whole: none lost
        if carry is not None:
            smu, store, n_held, since = carry
            if since is not None and whole:
                prior, named = since
                edges, work = work[n_held:], []
                dbas, slots = smu.imcu.row_dbas, smu.imcu.row_slots
                last = None
                for position in named:  # in position order: block by block
                    dba = dbas.item(position)
                    if dba != last:
                        work.append((store.get(dba), []))
                        last = dba
                    work[-1][1].append(slots.item(position))
                work += edges
        walked = visible_values_batch(
            work, snapshot_scn, self.txns, compiled.memo
        )
        if prior is not None:
            return prior.carried_to(
                named, walked, smu.invalid_positions(), compiled.resolver,
                charges,
            )
        image = TailImage(walked, compiled.resolver, charges)
        if carry is not None and whole:
            image.held = smu.invalid_positions()
        return image
