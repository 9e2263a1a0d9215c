"""Column compression units (CUs).

"IMCUs employ techniques like data compression and encoding to efficiently
pack the IMCS" (paper, II-B).  Two encodings are provided:

* :class:`NumericCU` -- NUMBER columns as a float64 vector plus a null
  bitmap; predicates evaluate as numpy comparisons (the stand-in for
  Oracle's SIMD vector processing).
* :class:`DictionaryCU` -- VARCHAR2 columns as int32 codes into a *sorted*
  dictionary; equality resolves to one code compare, range predicates to a
  code-range compare (sortedness makes order-preserving encoding possible).

Every CU answers the same small interface: vectorised predicate masks,
bulk decode for projection (``take``), encoded-domain aggregation
(``stats_for_positions``), min/max for the storage index, and a memory
estimate for the pool accounting.

Encoding is *block-wise* (:func:`encode_rows` over a :func:`row_matrix`);
``DictionaryCU(values)`` runs the same kernel on one column, and the
cell-at-a-time loops they replaced are the reference model in
``tests/naive_imcu.py``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

#: Dictionary code used for NULL values.
NULL_CODE = -1


class NumericCU:
    """NUMBER column: contiguous float64 vector + null bitmap."""

    @classmethod
    def from_arrays(
        cls,
        data: np.ndarray,
        nulls: Optional[np.ndarray] = None,
        is_int: Optional[np.ndarray] = None,
    ) -> "NumericCU":
        """Install encoded buffers as given: a contiguous float64 vector
        and bool masks of its length (no per-row Python, no copy)."""
        cu = cls.__new__(cls)
        cu._install(data, nulls, is_int)
        return cu

    def _install(self, data, nulls, is_int) -> None:
        self._data = data
        self.n_rows = int(data.shape[0])
        self._nulls = np.zeros(self.n_rows, bool) if nulls is None else nulls
        self._is_int = np.zeros(self.n_rows, bool) if is_int is None else is_int

    # What an immutable column knows about itself, asked once (or told by
    # :func:`encode_rows`, which knows it for a whole block of columns), so
    # that a gather of a handful of positions need not ask again.
    @cached_property
    def _any_null(self) -> bool:
        return bool(self._nulls.any())

    @cached_property
    def _any_int(self) -> bool:
        return bool(self._is_int.any())

    @cached_property
    def _bounds(self) -> tuple:
        present = self._data[~self._nulls] if self._any_null else self._data
        if not present.size:
            return None, None
        return float(present.min()), float(present.max())

    def take(self, positions) -> list:
        positions = np.asarray(positions, dtype=np.int64)
        values = self._data[positions]
        if not (self._any_int or self._any_null):
            return values.tolist()  # Python floats, not np.float64
        out = np.empty(values.size, dtype=object)
        out[:] = values.tolist()
        if self._any_int:
            ints = self._is_int[positions]
            out[ints] = values[ints].astype(np.int64).tolist()
        if self._any_null:
            out[self._nulls[positions]] = None
        return out.tolist()

    # NULLs never match; a literal of the other kind matches no row, and
    # a range bound of the other kind raises ``TypeError``.  An int literal
    # float64 cannot hold equals no stored value.
    def eq_mask(self, value: object) -> np.ndarray:
        if isinstance(value, str):
            return np.zeros(self.n_rows, dtype=bool)
        try:
            needle = float(value)
        except (TypeError, ValueError, OverflowError):
            return np.zeros(self.n_rows, dtype=bool)
        if needle != value:
            return np.zeros(self.n_rows, dtype=bool)
        mask = self._data == needle
        if self._any_null:
            mask &= ~self._nulls
        return mask

    def range_mask(self, lo=None, hi=None, lo_inclusive=True, hi_inclusive=True):
        data = self._data
        mask = None
        if lo is not None:
            if isinstance(lo, int):
                lo, lo_inclusive = _int_bound(lo, lo_inclusive, False)
            mask = (data >= lo) if lo_inclusive else (data > lo)
        if hi is not None:
            if isinstance(hi, int):
                hi, hi_inclusive = _int_bound(hi, hi_inclusive, True)
            below = (data <= hi) if hi_inclusive else (data < hi)
            if mask is None:
                mask = below
            else:
                mask &= below
        if mask is None:
            return ~self._nulls
        if self._any_null:
            mask &= ~self._nulls
        return mask

    def null_mask(self) -> np.ndarray:
        return self._nulls.copy()

    def stats_for_positions(self, positions):
        positions = np.asarray(positions, dtype=np.int64)
        present = self._data[positions]
        if self._any_null:
            present = present[~self._nulls[positions]]
        if present.size == 0:
            return 0, 0.0, None, None
        return (
            int(present.size),
            float(present.sum()),
            float(present.min()),
            float(present.max()),
        )

    @property
    def min_value(self):
        return self._bounds[0]

    @property
    def max_value(self):
        return self._bounds[1]

    @property
    def memory_bytes(self) -> int:
        return int(
            self._data.nbytes + self._nulls.nbytes + self._is_int.nbytes
        )


def _int_bound(bound: int, inclusive: bool, upper: bool) -> tuple:
    """An int range bound as the float64 the compare takes: one float64
    cannot hold rounds, and the rounded bound includes exactly when it lies
    inside the range (below an upper bound, above a lower one) -- no
    float64 lies between the two."""
    try:
        rounded = float(bound)
    except OverflowError:  # past float64's range
        rounded = math.inf if bound > 0 else -math.inf
    if rounded != bound:
        inclusive = (rounded < bound) == upper
    return rounded, inclusive


def _numeric_arrays(
    cells: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, nulls, is_int)`` of an ``(n, k)`` object block of NUMBER
    cells, each column-major so that ``[:, j]`` is a contiguous view."""
    # The cast turns None into nan *without raising*: NULLs are found from
    # the cells, never from it (a stored float("nan") is a value).
    data = cells.astype(np.float64, order="F")
    nulls = np.zeros(cells.shape, dtype=bool, order="F")
    # float64 cannot tell an original int 20 from a float 20.0, so int-ness
    # is recorded per cell -- decoded tuples must compare (and sort, and
    # repr) equal to the row-store originals.  A column's type set picks
    # the all-False / all-non-NULL fast paths; a mix keeps a per-cell mask.
    is_int = np.zeros(cells.shape, dtype=bool, order="F")
    for j, column in enumerate(cells.T.tolist()):
        kinds = set(map(type, column))
        if type(None) in kinds:
            kinds.discard(type(None))
            nulls[:, j] = np.equal(cells[:, j], None)
        if kinds == {int}:
            np.logical_not(nulls[:, j], out=is_int[:, j])
        elif not kinds <= {float}:
            is_int[:, j] = np.fromiter(
                map(isinstance, column, itertools.repeat(int)),
                dtype=bool,
                count=len(column),
            )
    data[nulls] = 0.0
    return data, nulls, is_int


def _dictionary_bytes(dictionary: list[str]) -> int:
    return sum(len(v) for v in dictionary) + 8 * len(dictionary)


def _sorted_codes(cells: Sequence) -> tuple[np.ndarray, list[str]]:
    """int32 codes into the sorted dictionary of a VARCHAR2 column.

    One interning pass: ``first[i]`` is the position of the first cell
    equal to ``cells[i]``, and ``table`` maps each distinct value (None
    included) to that position.  The codes are then a permutation over
    first-occurrence positions, None's left at ``NULL_CODE``."""
    table: dict = {}
    first = np.fromiter(
        map(table.setdefault, cells, itertools.count()),
        dtype=np.intp,
        count=len(cells),
    )
    table.pop(None, None)
    dictionary = sorted(table)
    n = len(dictionary)
    remap = np.full(first.size, NULL_CODE, dtype=np.int32)
    remap[np.fromiter(map(table.__getitem__, dictionary), np.intp, n)] = (
        np.arange(n, dtype=np.int32)
    )
    return remap[first], dictionary


def _patched_codes(
    block, table, offsets, dictionaries: list, source, at, cells
) -> tuple[np.ndarray, list]:
    """Merge kernel beside :func:`_sorted_codes`, for every VARCHAR2 column
    of a unit at once: an outgoing unit's ``(k, n)`` code ``block``
    (decoded by ``table`` at ``offsets``, one sorted dictionary per row)
    gathered by ``source`` and patched at ``at`` with the ``(m, k)``
    ``cells``, and the sorted dictionaries of exactly the values the
    merged rows hold.

    A fresh cell is looked up only where its value differs from the one
    gathered at its position (the outgoing unit's at the same address).
    An entry leaves only when a dropped row or an overwritten cell was its
    last holder; a new value enters in sorted position, and a column whose
    dictionary changed moves its codes through one ``remap`` gather;
    those columns are returned third."""
    codes = block.take(source, axis=1)
    held = codes[:, at]
    changed = table[held + offsets[:, None]] != cells.T
    changed[:, source[at] < 0] = True  # no prior: what was gathered is junk
    columns, rows = np.nonzero(changed)
    referenced = np.zeros(block.shape[1] + 1, dtype=bool)
    referenced[source] = True  # -1 lands on the spare slot
    dropped = block[:, ~referenced[:-1]]
    lost = set(zip(columns.tolist(), held[columns, rows].tolist()))
    lost.update(zip(
        np.repeat(np.arange(len(block)), dropped.shape[1]).tolist(),
        dropped.ravel().tolist(),
    ))
    entering: dict = {}  # column -> {new value: its place in the old one}
    late, patch = [], []  # (column, position, value) of each entering cell
    for j, i, value in zip(
        columns.tolist(), at[rows].tolist(), cells[rows, columns].tolist()
    ):
        code = NULL_CODE  # for an entering value too: no candidate's code
        if value is not None:
            dictionary = dictionaries[j]
            place = bisect.bisect_left(dictionary, value)
            if place < len(dictionary) and dictionary[place] == value:
                code = place
            else:
                entering.setdefault(j, {})[value] = place
                late.append((j, i, value))
        patch.append(code)
    codes[columns, at[rows]] = patch
    lost = np.array(
        [pair for pair in lost if pair[1] != NULL_CODE], dtype=np.intp
    ).reshape(-1, 2).T
    gone = lost[:, ~(codes[lost[0]] == lost[1][:, None]).any(axis=1)]
    remapped = sorted(set(gone[0].tolist()).union(entering))
    if remapped:
        sizes = np.array([len(dictionaries[j]) for j in remapped])
        alive = np.arange(sizes.max() + 1) < sizes[:, None]  # NULL slot last
        row = dict(zip(remapped, itertools.count()))
        alive[[row[j] for j in gone[0].tolist()], gone[1]] = False
        steps = alive.astype(np.intp)
        for j, places in entering.items():
            for place in places.values():  # pushes entries from there up
                steps[row[j], place] += 1
        remap = steps.cumsum(axis=1) - 1
        remap[:, -1] = NULL_CODE
        codes[remapped] = np.take_along_axis(remap, codes[remapped], axis=1)
        for j, live in zip(remapped, alive.tolist()):
            dictionaries[j] = sorted(itertools.chain(
                entering.get(j, ()), itertools.compress(dictionaries[j], live)
            ))
        for j, i, value in late:
            codes[j, i] = bisect.bisect_left(dictionaries[j], value)
    return codes, dictionaries, remapped


def _decode_table(dictionaries: Sequence[list[str]]) -> tuple:
    """One object-array decode table for many sorted dictionaries, each
    followed by a ``None`` slot, and their offsets into it: ``code +
    offset`` decodes, ``NULL_CODE`` lands on the None before."""
    offsets, cells = [], []
    for dictionary in dictionaries:
        offsets.append(len(cells))
        cells += dictionary
        cells.append(None)
    return np.array(cells, dtype=object), offsets


def _sorted_code_for(dictionary: list[str], value: str) -> Optional[int]:
    i = bisect.bisect_left(dictionary, value)
    if i < len(dictionary) and dictionary[i] == value:
        return i
    return None


def _code_bounds(
    dictionary: list[str], lo, hi, lo_inclusive: bool, hi_inclusive: bool
) -> tuple[int, int]:
    """Map a value range to a contiguous code range of a sorted dictionary."""
    lo_code = 0
    hi_code = len(dictionary) - 1
    if lo is not None:
        lo_code = (
            bisect.bisect_left(dictionary, lo)
            if lo_inclusive
            else bisect.bisect_right(dictionary, lo)
        )
    if hi is not None:
        hi_code = (
            bisect.bisect_right(dictionary, hi) - 1
            if hi_inclusive
            else bisect.bisect_left(dictionary, hi) - 1
        )
    return lo_code, hi_code


class DictionaryCU:
    """VARCHAR2 column: int32 codes into a sorted dictionary."""

    def __init__(self, values: Sequence[Optional[str]]) -> None:
        self._codes, self._dictionary = _sorted_codes(values)
        self.n_rows = len(values)

    @classmethod
    def from_codes(
        cls, codes: np.ndarray, dictionary: list[str]
    ) -> "DictionaryCU":
        """Install a contiguous int32 code vector and its *sorted*
        dictionary as given (no per-row Python, no copy)."""
        cu = cls.__new__(cls)
        cu._codes, cu._dictionary = codes, dictionary
        cu.n_rows = int(codes.shape[0])
        return cu

    @cached_property
    def _decode(self) -> np.ndarray:  # a view, once its IMCU has a table
        return _decode_table([self._dictionary])[0]

    def take(self, positions) -> list:
        positions = np.asarray(positions, dtype=np.int64)
        # NULL_CODE (-1) indexes the table's trailing None slot
        return self._decode[self._codes[positions]].tolist()

    def eq_mask(self, value: object) -> np.ndarray:
        if value is None or not isinstance(value, str):
            return np.zeros(self.n_rows, dtype=bool)
        code = _sorted_code_for(self._dictionary, value)
        if code is None:
            return np.zeros(self.n_rows, dtype=bool)
        return self._codes == code

    def range_mask(self, lo=None, hi=None, lo_inclusive=True, hi_inclusive=True):
        # the dictionary is sorted: a value range is a contiguous code
        # range, and lo_code >= 0 leaves NULL_CODE (-1) outside it
        lo_code, hi_code = _code_bounds(
            self._dictionary, lo, hi, lo_inclusive, hi_inclusive
        )
        return (self._codes >= lo_code) & (self._codes <= hi_code)

    def null_mask(self) -> np.ndarray:
        return self._codes == NULL_CODE

    def stats_for_positions(self, positions):
        positions = np.asarray(positions, dtype=np.int64)
        codes = self._codes[positions]
        present = codes[codes != NULL_CODE]
        if present.size == 0:
            return 0, 0.0, None, None
        # codes are order-preserving: min/max decode exactly two values
        return (
            int(present.size),
            0.0,
            self._dictionary[int(present.min())],
            self._dictionary[int(present.max())],
        )

    @property
    def min_value(self):
        return self._dictionary[0] if self._dictionary else None

    @property
    def max_value(self):
        return self._dictionary[-1] if self._dictionary else None

    @cached_property
    def memory_bytes(self) -> int:
        return int(self._codes.nbytes) + _dictionary_bytes(self._dictionary)


#: Either CU: both answer the interface the module docstring names.
ColumnCU = NumericCU | DictionaryCU


def row_matrix(rows: Sequence[tuple], arity: int) -> np.ndarray:
    """Row tuples as one ``(n_rows, arity)`` object matrix -- allocated,
    then assigned: ``np.array(rows, dtype=object)`` guesses the shape, and
    guesses wrong for zero rows."""
    matrix = np.empty((len(rows), arity), dtype=object)
    if rows:
        matrix[:] = rows
    return matrix


def encode_rows(
    matrix: np.ndarray,
    specs: Sequence[tuple[int, bool]],
    carried: Optional[tuple] = None,
) -> tuple[list[ColumnCU], tuple]:
    """Encode columns of a :func:`row_matrix`, block-wise.  ``specs`` is,
    per output column, ``(matrix column, is NUMBER)``.  All NUMBER columns
    are cast together; every VARCHAR2 column gets its own sorted
    dictionary.

    ``carried = (old, names, source, at)`` makes it a merge (delta
    repopulation): ``old`` is the outgoing IMCU, ``names[k]`` the column
    of ``specs[k]``.  Merged row ``i`` is ``old``'s row ``source[i]``,
    except that ``matrix``'s rows land at positions ``at``; there
    ``source`` is the row ``old`` held at the same address (-1: none).
    Each of ``old``'s blocks is gathered by ``source`` and patched at
    ``at`` by the kernel beside its encoder, which yields exactly the CUs
    that encoding the merged values would.

    Also returns the blocks the CUs are views of, each ``(spec indices,
    *(k, n) arrays, what projection needs)`` or None: the NUMBER columns'
    data, nulls and is_int, then their facts -- per column any NULL, any
    int, all int, as three lists; the VARCHAR2 columns' int32 codes, then
    ``old``'s decode table if the merge kept its code rows in order and
    changed no dictionary (else None: the unit builds its own)."""
    cus: list = [None] * len(specs)
    number_block = code_block = None
    numeric = [k for k, (__, is_numeric) in enumerate(specs) if is_numeric]
    strings = [k for k, (__, is_numeric) in enumerate(specs) if not is_numeric]
    if carried is not None:
        old, names, source, at = carried
        old_names = old.column_names

        def rows(kind: int, ks: list):
            """The rows of ``old``'s block ``kind`` holding columns ``ks``."""
            listed = [old_names[k] for k in old._blocks[kind][0]]
            wanted = [names[k] for k in ks]
            return slice(None) if wanted == listed else [
                listed.index(name) for name in wanted
            ]

    if numeric:
        blocks = _numeric_arrays(matrix[:, [specs[k][0] for k in numeric]])
        blocks = [block.T for block in blocks]
        if carried is not None:
            picked = rows(0, numeric)
            for i, fresh in enumerate(blocks):
                blocks[i] = old._blocks[0][1 + i][picked].take(source, axis=1)
                blocks[i][:, at] = fresh  # every cell of a fresh row
        # every column's (any NULL, any int, all int) in three reductions,
        # not three per CU on first use: a wide build makes ~50 of these
        facts = [block.any(axis=1).tolist() for block in blocks[1:]]
        facts.append(blocks[2].all(axis=1).tolist())
        for j, k in enumerate(numeric):
            cu = cus[k] = NumericCU.from_arrays(*(b[j] for b in blocks))
            cu._any_null, cu._any_int = facts[0][j], facts[1][j]
        number_block = (numeric, *blocks, facts)
    if strings:
        kept = None
        if carried is None:
            codes, dictionaries = zip(*(
                _sorted_codes(matrix[:, specs[k][0]].tolist())
                for k in strings
            ))
            block = np.array(codes, dtype=np.int32)
        else:
            picked = rows(1, strings)
            table, offsets = old._code_table
            block, dictionaries, remapped = _patched_codes(
                old._blocks[1][1][picked], table, offsets[picked],
                [old.column(names[k])._dictionary for k in strings],
                source, at, matrix[:, [specs[k][0] for k in strings]],
            )
            if not remapped and picked == slice(None):
                kept = old._code_table
        for j, k in enumerate(strings):
            cus[k] = DictionaryCU.from_codes(block[j], dictionaries[j])
        code_block = (strings, block, kept)
    return cus, (number_block, code_block)
