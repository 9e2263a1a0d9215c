"""Snapshot Metadata Units.

"A Snapshot Metadata Unit (SMU) accompanies each IMCU and tracks the
validity of the data populated in its corresponding IMCU at various levels
of granularity -- block level, row level and column level" (paper, II-B).
The scan engine reconciles the IMCU against its SMU: invalid rows are
served from the row store instead.

A unit scan is one scheduler step, so repopulation's swap of a fresh
IMCU and a drop, which marks the unit unusable, land only between scans:
nothing pins an SMU.

Invalidation is *monotone*: marking extra rows invalid is always safe
(costs row-store fallback), while missing one would break consistency --
the central invariant the DBIM-on-ADG machinery maintains on the standby.

An invalidation reaches an SMU at the commitSCN it announces, never below
it: the primary's commit and the standby's flush pass the transaction's
commitSCN, the RAC router its groups', a unit's install the parked
records' own, and a repopulation swap the outgoing unit's
``last_invalidation_scn``, the highest of them.  A unit's tail image rests
on it: carried to a later snapshot, the image walks again only the rows
named above the snapshot it was walked at (:meth:`SMU.tail_since`).
"""

from __future__ import annotations

import bisect
import itertools
import operator

import numpy as np

from repro.common.errors import InvalidStateError
from repro.common.ids import DBA
from repro.common.scn import NULL_SCN, SCN
from repro.imcs.compression import ColumnCU, DictionaryCU, NumericCU
from repro.imcs.expressions import RowResolver
from repro.imcs.imcu import IMCU, row_keys
from repro.rowstore.values import ColumnType


class TailImage:
    """Row-store rows as one Consistent Read pass answered them -- a
    unit's reconcile tail, or blocks no unit serves -- laid out for the
    scan engine's kernels the way an IMCU is.

    ``visible`` is the pass's answer per slot read; ``rows`` are its
    visible row tuples in slot order -- a slot with nothing visible (a
    tombstone, a slot past a wiped block's end) has no row, so it never
    matches.  ``slots`` counts every slot read.  ``column(name)`` is the
    column's (or In-Memory Expression's) CU over ``rows``, as an IMCU
    would hold it -- a :class:`NumericCU` for a NUMBER, a
    :class:`DictionaryCU` for a VARCHAR2 -- so the IMCU's predicate masks
    and ``stats_for_positions`` serve it; built the first time a scan
    filters or aggregates on it and kept for every later one.
    ``charges`` are the row-cost addends the pass added to the scan's
    cost, in order, one per block held: a repeat adds them again.

    A unit's tail holds the positions of the invalid rows it answers,
    ascending, in ``held`` (``visible`` answers them first), so a later
    snapshot's reconcile can carry it forward (:meth:`carried_to`).  A
    carried image keeps in ``carried`` what its stored NUMBER columns need
    to be the prior's CUs gathered and patched: the prior's CUs, both
    ``held`` arrays, the prior's ``visible`` if it had empty slots and the
    entries walked again.
    """

    __slots__ = (
        "slots", "visible", "rows", "n_rows", "resolver", "charges", "held",
        "carried", "_gather", "_columns",
    )

    def __init__(
        self, visible: list, resolver: RowResolver, charges=()
    ) -> None:
        self.slots = len(visible)
        self.visible = visible
        self.charges = charges
        # a row is a non-empty tuple: only a slot with no row is falsy
        self.rows = (
            visible if all(visible)
            else [row for row in visible if row is not None]
        )
        self.n_rows = len(self.rows)
        self.resolver = resolver
        self.held: np.ndarray | None = None
        self.carried = self._gather = None
        self._columns: dict[str, ColumnCU] = {}

    def carried_to(
        self, named: list, walked: list, now: np.ndarray,
        resolver: RowResolver, charges,
    ) -> TailImage:
        """This unit tail carried to a newer snapshot, where it holds the
        invalid rows at ``now``: ``walked`` answers the rows at ``named``
        positions (ascending), then the edge rows; every other row keeps
        its answer here.  The new image keeps this one's CUs: a stored
        NUMBER column's is gathered and patched."""
        held, answered = self.held.tolist(), self.visible
        visible, fresh = [], []  # fresh: the entries walked again
        i, m = 0, len(held)
        for position, row in zip(named, walked):
            j = bisect.bisect_left(held, position, i)
            visible += answered[i:j]
            fresh.append(len(visible))
            visible.append(row)
            i = j + (j < m and held[j] == position)
        visible += answered[i:m]
        n = len(visible)
        visible += walked[len(named):]  # the edge rows
        fresh += range(n, len(visible))
        image = TailImage(visible, resolver, charges)
        image.held = now
        image.carried = (
            self._columns, self.held, now,
            None if self.rows is answered else answered, fresh,
        )
        return image

    def column(self, name: str) -> ColumnCU:
        column = self._columns.get(name)
        if column is None:
            schema = self.resolver.schema
            expressions = self.resolver.expressions
            expression = (
                expressions.get(name) if expressions is not None else None
            )
            if expression is None:
                (index,) = schema.positions((name,))
                is_number = schema.columns[index].ctype is ColumnType.NUMBER
                prior = self.carried and self.carried[0].get(name)
                if prior and is_number:
                    column = self._columns[name] = self._patched(prior, index)
                    return column
                values = list(map(operator.itemgetter(index), self.rows))
            else:
                values = [
                    expression.evaluate(row, schema) for row in self.rows
                ]
                is_number = expression.is_numeric
                # what IMCU._build leaves out of a unit, no path answers
                if is_number and not all(
                    map(ColumnType.NUMBER.validate, values)
                ):
                    raise ValueError(
                        f"In-Memory Expression {name!r} has a value a "
                        f"NUMBER column cannot hold"
                    )
            column = self._columns[name] = (
                _numeric_cu(values) if is_number else DictionaryCU(values)
            )
        return column

    def _patched(self, prior: NumericCU, index: int) -> NumericCU:
        """The prior image's CU of a stored NUMBER column gathered onto
        this image's rows, and patched at the ones walked again."""
        if self._gather is None:
            self._gather = self._gathered()
            self.carried = self.carried[:1]  # the rest can go
        kept, at = self._gather
        rows = self.rows
        if kept is None:  # nothing kept
            return _numeric_cu([rows[i][index] for i in at])
        # an entry walked again gathers any row: its value is patched
        data = prior._data.take(kept, mode="clip")
        values = [rows[i][index] for i in at]
        data[at] = values  # a NULL casts to NaN, under the null bit
        nulls = None
        if prior._any_null or None in values:
            nulls = (
                prior._nulls.take(kept, mode="clip") if prior._any_null
                else np.zeros(data.size, dtype=bool)
            )
            nulls[at] = [value is None for value in values]
        cu = NumericCU.from_arrays(data, nulls)
        cu._any_null = nulls is not None
        return cu

    def _gathered(self) -> tuple:
        """``(kept, at)``: each row's row in the prior image (any row, for
        one walked again) and the rows walked again -- ``kept`` None when
        every row was."""
        __, held, now, gaps, at = self.carried
        present = None
        if self.rows is not self.visible:  # entries with no row
            present = np.array([row is not None for row in self.visible])
            at = (present.cumsum() - 1)[[i for i in at if present[i]]]
            at = at.tolist()
        if len(at) == self.n_rows:
            return None, at
        kept = held.searchsorted(now)  # past the end for a new row
        if now.size < self.slots:  # the edge entries, walked again
            kept = np.concatenate(
                (kept, np.zeros(self.slots - now.size, kept.dtype))
            )
        if gaps is not None:  # and the prior's
            kept = np.cumsum([row is not None for row in gaps]).take(
                kept, mode="clip"
            ) - 1
        if present is not None:
            kept = kept[present]
        return kept, at


def _numeric_cu(values: list) -> NumericCU:
    """A NUMBER column's CU from one float64 conversion (None casts to
    NaN)."""
    data = np.array(values, dtype=np.float64)
    nulls = np.isnan(data)
    # a NaN there is a NULL or a stored NaN, which is a value
    at = nulls.nonzero()[0].tolist()
    if at:
        nulls[at] = flags = [values[i] is None for i in at]
    cu = NumericCU.from_arrays(data, nulls)
    cu._any_null = bool(at) and any(flags)
    return cu


#: The image of a tail with no slots to read.
NO_ROWS = TailImage([], None)


class SMU:
    """Validity metadata + concurrency control for one IMCU."""

    def __init__(self, imcu: IMCU) -> None:
        self.imcu = imcu
        self._invalid_rows = np.zeros(imcu.n_rows, dtype=bool)
        self._invalid_blocks: set[DBA] = set()
        #: Invalidation epoch: bumped whenever the validity state changes.
        #: Derived structures (the validity mask, the per-DBA reconcile
        #: index) are cached against it, so repeated scans between
        #: invalidations pay for them once.
        self._epoch = 0
        self._mask_epoch = -1
        self._mask_cache: np.ndarray | None = None
        self._by_dba_epoch = -1
        self._by_dba_cache: tuple | None = None
        #: The row-store tail as the last scan reconciled it: ``((epoch,
        #: key), blocks, image)`` -- see :meth:`tail_image`.
        self._tail_image: tuple | None = None
        #: ``(scn, row positions)`` per invalidation call above the kept
        #: image's snapshot (:meth:`tail_since`), and that snapshot; with
        #: no image kept, only the highest SCN a call named
        self._named: list[tuple[SCN, np.ndarray]] = []
        self._named_above = self._unlogged = NULL_SCN
        #: Row invalidations of slots the IMCU never captured: row key ->
        #: commitSCN.  Every scan re-reads such an edge row anyway, but a
        #: repopulation swap hands the ones newer than its snapshot to an
        #: incoming unit that may capture the slot (see
        #: ``InMemoryColumnStore._carry_invalidations``).
        self.uncaptured: dict[int, SCN] = {}
        #: Columns dropped since population (column-level validity).
        self._invalid_columns: set[str] = set()
        #: Highest SCN at which an invalidation was recorded; repopulation
        #: uses it to pick a snapshot that covers everything invalidated.
        self.last_invalidation_scn: SCN = NULL_SCN
        #: Set when the whole IMCU is unusable (coarse invalidation or a
        #: schema change); scans must fall back to the row store entirely.
        self.fully_invalid = False
        #: Drop state: a dropped unit is never scanned or repopulated.
        self.dropped = False
        #: Repopulation bookkeeping.
        self.repopulating = False
        self.last_repopulated_at: float = -1.0

    # ------------------------------------------------------------------
    # invalidation (called by the owner store, inside one scheduler step)
    # ------------------------------------------------------------------
    def invalidate_keys(self, keys, scn: SCN, scns=None) -> int:
        """Row invalidation at once: mark every row of ``keys`` (distinct
        :func:`~repro.imcs.imcu.row_keys`, a list or an array) invalid
        with a single epoch bump and one mask write.

        This is how the store applies everything one worklink drain call
        holds for this unit -- draining costs O(touched units) epoch
        bumps instead of O(rows).  Rows the IMCU never captured (inserted
        after its snapshot) are already row-store-only -- every scan reads
        its blocks' edge slots -- so they only park in :attr:`uncaptured`,
        each with its own commitSCN from ``scns`` (default: ``scn``, the
        highest among them).  Returns the number of rows newly
        invalidated.
        """
        self._touch(scn)
        keys = np.asarray(keys, dtype=np.int64)
        positions, hit = self.imcu.locate_keys(keys)
        if positions.size:
            self._log(scn, positions)
        if positions.size < len(keys):
            missed = ~hit
            own = (
                itertools.repeat(scn) if scns is None
                else np.asarray(scns)[missed].tolist()
            )
            parked = self.uncaptured
            for key, key_scn in zip(keys[missed].tolist(), own):
                if key_scn > parked.get(key, NULL_SCN):
                    parked[key] = key_scn
        fresh = positions[~self._invalid_rows[positions]]
        if fresh.size == 0:
            return 0
        self._invalid_rows[fresh] = True
        self._epoch += 1
        return int(fresh.size)

    def invalidate_block(self, dba: DBA, scn: SCN) -> None:
        """Block-level invalidation: every captured row of ``dba``."""
        self._touch(scn)
        self._log(scn, self.imcu.positions_for_dba(dba))
        if dba not in self._invalid_blocks:
            self._invalid_blocks.add(dba)
            self._epoch += 1

    def invalidate_fully(self, scn: SCN) -> None:
        """Coarse invalidation (paper, III-E): the IMCU cannot be used
        until repopulated."""
        self._touch(scn)
        if not self.fully_invalid:
            self.fully_invalid = True
            self._epoch += 1

    def invalidate_column(self, name: str, scn: SCN) -> None:
        self._touch(scn)
        self._invalid_columns.add(name)

    def _log(self, scn: SCN, positions: np.ndarray) -> None:
        if self._tail_image is not None:
            self._named.append((scn, positions))
        elif scn > self._unlogged:
            self._unlogged = scn

    def _touch(self, scn: SCN) -> None:
        if scn > self.last_invalidation_scn:
            self.last_invalidation_scn = scn

    # ------------------------------------------------------------------
    # scan-side reconciliation
    # ------------------------------------------------------------------
    def columns_valid(self, names) -> bool:
        """True when no column in ``names`` has been invalidated (set-at-
        once check for the scan engine's per-unit usability test)."""
        return (
            not self._invalid_columns
            or self._invalid_columns.isdisjoint(names)
        )

    def serves(self, names: frozenset[str]) -> bool:
        """True when the unit's data may be used for columns ``names`` --
        by a scan, or by the build of its replacement."""
        return (
            not (self.fully_invalid or self.dropped)
            and names <= self.imcu.column_name_set
            and self.columns_valid(names)
        )

    def valid_row_mask(self) -> np.ndarray:
        """Boolean mask over IMCU row positions: True = IMCU data usable.

        Cached until the invalidation epoch changes; the returned array is
        shared and marked read-only -- callers must not mutate it.
        """
        if self._mask_epoch != self._epoch:
            self._mask_cache = self._compute_mask()
            self._mask_cache.flags.writeable = False
            self._mask_epoch = self._epoch
        return self._mask_cache

    def _compute_mask(self) -> np.ndarray:
        if self.fully_invalid or self.dropped:
            return np.zeros(self.imcu.n_rows, dtype=bool)
        mask = ~self._invalid_rows
        if self._invalid_blocks:
            for dba in self._invalid_blocks:
                positions = self.imcu.positions_for_dba(dba)
                if positions.size:
                    mask[positions] = False
        return mask

    def invalid_slots_by_dba(self) -> dict[DBA, list[int]]:
        """Captured-but-invalid rows grouped by block: DBA -> slot list.

        The scan engine's reconcile path walks this so each block's chains
        are visited once; cached against the invalidation epoch like the
        validity mask, with the rows' positions.  Read-only for callers.
        """
        if self._by_dba_epoch != self._epoch:
            positions = np.flatnonzero(~self.valid_row_mask())
            self._by_dba_cache = (
                positions, self.imcu.slots_by_dba(positions)
            )
            self._by_dba_epoch = self._epoch
        return self._by_dba_cache[1]

    def invalid_positions(self) -> np.ndarray:
        """Those rows' positions, ascending: the order they are listed in."""
        self.invalid_slots_by_dba()
        return self._by_dba_cache[0]

    def tail_image(self, key) -> tuple:
        """``(blocks, image)`` kept under ``key`` at this epoch, else
        ``(None, None)``: the row-store tail the scan engine's reconcile
        last gathered and walked, as a :class:`TailImage` with the column
        vectors its scans built."""
        image = self._tail_image
        if image is not None and image[0] == (self._epoch, key):
            return image[1:]
        return None, None

    def tail_since(self, snapshot_scn: SCN, truncate_scn: SCN):
        """``(image, named)`` if a reconcile at ``snapshot_scn`` may carry
        the kept image -- walked at an S1 at or below it, with no TRUNCATE
        since -- else None.  ``named`` lists, ascending, the positions
        invalidations named above S1 or since the image was kept: by the
        module's precondition, every row invalid since and every row a
        commit in (S1, snapshot] changed."""
        kept = self._tail_image
        if kept is None:
            return None
        (__, (scn, truncate, __)), __, image = kept
        if image.held is None or truncate != truncate_scn or (
            scn > snapshot_scn
        ):
            return None
        return image, sorted({
            position for __, positions in self._named
            for position in positions.tolist()
        })

    def keep_tail_image(self, key, blocks, image: TailImage) -> None:
        """Keep ``image``, walked at snapshot ``key[0]``, and forget what
        invalidations at or below it named.  An image below a snapshot
        already forgotten is not kept: what was named between is gone; nor
        is one carried forward that a call above its snapshot went unlogged
        for, made while no image was kept."""
        scn = key[0]
        if scn < self._named_above:
            return
        self._tail_image = ((self._epoch, key), blocks, image)
        self._named_above = scn
        if self._named:
            self._named = [entry for entry in self._named if entry[0] > scn]
        if self._unlogged > scn:
            image.held = None

    @property
    def invalid_blocks(self) -> frozenset[DBA]:
        """Blocks invalidated wholesale (read-only view)."""
        return frozenset(self._invalid_blocks)

    def invalid_row_keys(self) -> np.ndarray:
        """*Row-level* invalidations only, as row keys.

        Unlike :meth:`invalid_slots_by_dba` this excludes block-level and
        coarse invalidation, so a repopulation swap can carry the boolean
        row mask verbatim and handle whole-block records separately (a
        block invalidation must stay whole-block on the new unit: it may
        cover slots the old IMCU never captured).
        """
        positions = np.flatnonzero(self._invalid_rows)
        return row_keys(
            self.imcu.row_dbas[positions], self.imcu.row_slots[positions]
        )

    def snapshot_validity(
        self,
    ) -> tuple[np.ndarray, frozenset[DBA], bool, SCN]:
        """Copy the validity state for a population checkpoint
        (:mod:`repro.restart`): the exact inverse of
        :meth:`restore_validity`."""
        return (
            self._invalid_rows.copy(),
            frozenset(self._invalid_blocks),
            self.fully_invalid,
            self.last_invalidation_scn,
        )

    def restore_validity(
        self,
        invalid_rows: np.ndarray,
        invalid_blocks,
        fully_invalid: bool,
        last_invalidation_scn: SCN,
    ) -> None:
        """Install checkpointed validity state on a restored unit's fresh
        SMU (instant restart, :mod:`repro.restart`).  The mask is copied; the
        epoch is bumped so every cached derivation recomputes, and the tail
        image goes: the next reconcile walks every row again."""
        if len(invalid_rows) != self.imcu.n_rows:
            raise InvalidStateError(
                f"checkpoint mask covers {len(invalid_rows)} rows, "
                f"IMCU holds {self.imcu.n_rows}"
            )
        self._invalid_rows = np.array(invalid_rows, dtype=bool)
        self._invalid_blocks = set(invalid_blocks)
        self.fully_invalid = bool(fully_invalid)
        if last_invalidation_scn > self.last_invalidation_scn:
            self.last_invalidation_scn = last_invalidation_scn
        self._epoch += 1
        self._tail_image = None

    @property
    def invalid_count(self) -> int:
        if self.fully_invalid:
            return self.imcu.n_rows
        if not self._invalid_blocks:
            return int(self._invalid_rows.sum())
        return self.imcu.n_rows - int(self.valid_row_mask().sum())

    @property
    def invalid_fraction(self) -> float:
        if self.imcu.n_rows == 0:
            return 1.0 if self.fully_invalid else 0.0
        return self.invalid_count / self.imcu.n_rows

    def mark_dropped(self) -> None:
        """A unit scan or a build reads its unit within one scheduler step,
        so no drop lands mid-read; a morsel planned before the drop finds
        the unit no longer :meth:`serves` and reads the row store."""
        self.dropped = True
        self._epoch += 1

    def __repr__(self) -> str:
        return (
            f"SMU(imcu={self.imcu.imcu_id}, invalid={self.invalid_count}/"
            f"{self.imcu.n_rows}, full={self.fully_invalid})"
        )
