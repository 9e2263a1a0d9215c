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
the per-column constructors are width-1 calls of the same code, and the
cell-at-a-time loops they replaced are the reference model in
``tests/naive_imcu.py``.
"""

from __future__ import annotations

import bisect
import itertools
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

#: Dictionary code used for NULL values.
NULL_CODE = -1


class ColumnCU:
    """Interface shared by every column compression unit."""

    #: Number of rows.
    n_rows: int

    def eq_mask(self, value: object) -> np.ndarray:
        """Boolean mask of rows equal to ``value`` (NULLs never match)."""
        raise NotImplementedError

    def range_mask(
        self, lo: object | None, hi: object | None,
        lo_inclusive: bool = True, hi_inclusive: bool = True,
    ) -> np.ndarray:
        """Boolean mask of rows within the range (NULLs never match)."""
        raise NotImplementedError

    def null_mask(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def min_value(self) -> object:
        """Smallest non-NULL value (storage index); None if all NULL."""
        raise NotImplementedError

    @property
    def max_value(self) -> object:
        raise NotImplementedError

    @property
    def memory_bytes(self) -> int:
        raise NotImplementedError


class NumericCU(ColumnCU):
    """NUMBER column: contiguous float64 vector + null bitmap."""

    def __init__(self, values: Sequence[Optional[float]]) -> None:
        cells = np.empty((len(values), 1), dtype=object)  # width-1 block
        cells[:, 0] = values
        data, nulls, is_int = _numeric_arrays(cells)
        self._install(data[:, 0], nulls[:, 0], is_int[:, 0])

    @classmethod
    def from_arrays(
        cls,
        data: np.ndarray,
        nulls: Optional[np.ndarray] = None,
        is_int: Optional[np.ndarray] = None,
    ) -> "NumericCU":
        """Build directly from encoded buffers (no per-row Python)."""
        cu = cls.__new__(cls)
        cu._install(data, nulls, is_int)
        return cu

    def _install(self, data, nulls, is_int) -> None:
        self._data = np.ascontiguousarray(data, dtype=np.float64)
        self.n_rows = int(self._data.shape[0])
        self._nulls = (
            np.zeros(self.n_rows, dtype=bool)
            if nulls is None
            else np.ascontiguousarray(nulls, dtype=bool)
        )
        self._is_int = (
            np.zeros(self.n_rows, dtype=bool)
            if is_int is None
            else np.ascontiguousarray(is_int, dtype=bool)
        )

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
    # a range bound of the other kind raises ``TypeError``.
    def eq_mask(self, value: object) -> np.ndarray:
        if isinstance(value, str):
            return np.zeros(self.n_rows, dtype=bool)
        try:
            needle = float(value)
        except (TypeError, ValueError):
            return np.zeros(self.n_rows, dtype=bool)
        mask = self._data == needle
        if self._any_null:
            mask &= ~self._nulls
        return mask

    def range_mask(self, lo=None, hi=None, lo_inclusive=True, hi_inclusive=True):
        data = self._data
        mask = None
        if lo is not None:
            mask = (data >= lo) if lo_inclusive else (data > lo)
        if hi is not None:
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


def _merge_numeric(olds: Sequence[NumericCU], keep, fresh, take) -> list:
    """Merge kernel beside :func:`_numeric_arrays`: its three blocks for
    rows ``keep`` of the ``k`` carried CUs followed by the ``fresh``
    blocks' rows, in ``take`` order -- every column of a buffer in one 2-D
    gather.  ``is_int`` is per cell and travels along."""
    n_old = olds[0].n_rows
    source = np.concatenate((keep, np.arange(n_old, n_old + len(fresh[0]))))
    source = source[take]
    merged = []
    for buffer, block in zip(("_data", "_nulls", "_is_int"), fresh):
        old = np.concatenate([getattr(cu, buffer) for cu in olds])
        old = np.concatenate((old.reshape(len(olds), n_old), block.T), axis=1)
        # ``take`` (not ``[:, source]``) lays the result out row-major,
        # and ``.T`` makes a row the contiguous column encode_rows slices
        merged.append(old.take(source, axis=1).T)
    return merged


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


def _merge_sorted_columns(
    olds: Sequence[DictionaryCU], keep, columns: Sequence[list], take
) -> list[tuple[np.ndarray, list[str]]]:
    """Merge kernel beside :func:`_sorted_codes`, for every sorted-
    dictionary column of a unit at once: rows ``keep`` of each carried CU
    followed by its ``columns`` cells, in ``take`` order, into the sorted
    dictionary of exactly the values those rows hold, as ``(codes,
    dictionary)``.  An entry whose last user went leaves it, a new value
    enters in sorted position, and the carried codes move through one
    ``remap`` gather; Python runs over the *distinct fresh* values only."""
    count = len(olds)
    sizes = [len(cu._dictionary) for cu in olds]
    kept = np.array([cu._codes[keep] for cu in olds], dtype=np.intp)
    # one padded usage table per column, NULL_CODE's slot last; flat, so a
    # column's -1 marks the (ignored) NULL slot of the column before it
    alive = np.zeros((count, max(sizes) + 1), dtype=bool)
    alive.ravel()[kept + np.arange(count)[:, None] * alive.shape[1]] = True
    steps = np.zeros(alive.shape, dtype=np.intp)
    known_of, entering_of = [], []
    for j, (cu, cells) in enumerate(zip(olds, columns)):
        known, entering = {}, []  # distinct fresh values, by old code
        for value in set(cells):
            if value is None:
                continue
            code = bisect.bisect_left(cu._dictionary, value)
            if code < sizes[j] and cu._dictionary[code] == value:
                alive[j, code] = True
                known[value] = code
            else:  # it pushes every entry from ``code`` on one code up
                entering.append(value)
                steps[j, code] += 1
        known_of.append(known)
        entering_of.append(entering)
    survivors = np.count_nonzero(alive[:, :-1], axis=1).tolist()
    steps += alive
    remap = steps.cumsum(axis=1)
    remap -= 1
    remap[:, -1] = NULL_CODE
    dictionaries, code_maps = [], []
    for j, (cu, code_of) in enumerate(zip(olds, known_of)):
        dictionary = cu._dictionary
        if entering_of[j] or survivors[j] < sizes[j]:
            dictionary = sorted(itertools.chain(
                entering_of[j],
                itertools.compress(dictionary, alive[j].tolist()),
            ))
            kept[j] = remap[j].take(kept[j])
            code_of = {
                value: bisect.bisect_left(dictionary, value)
                for value in itertools.chain(code_of, entering_of[j])
            }
        dictionaries.append(dictionary)
        code_maps.append(code_of)
    n_fresh = len(columns[0])
    codes = np.fromiter(
        itertools.chain.from_iterable(
            map(code_of.get, cells, itertools.repeat(NULL_CODE))  # None
            for code_of, cells in zip(code_maps, columns)
        ),
        dtype=np.intp,
        count=count * n_fresh,
    ).reshape(count, n_fresh)
    codes = np.concatenate((kept, codes), axis=1).take(take, axis=1)
    return list(zip(codes, dictionaries))


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


class DictionaryCU(ColumnCU):
    """VARCHAR2 column: int32 codes into a sorted dictionary."""

    def __init__(self, values: Sequence[Optional[str]]) -> None:
        self._codes, self._dictionary = _sorted_codes(values)
        self.n_rows = len(values)

    @classmethod
    def from_codes(
        cls, codes: np.ndarray, dictionary: Sequence[str]
    ) -> "DictionaryCU":
        """Build directly from an encoded code vector and its *sorted*
        dictionary (no per-row Python)."""
        cu = cls.__new__(cls)
        cu._codes = np.ascontiguousarray(codes, dtype=np.int32)
        cu.n_rows = int(cu._codes.shape[0])
        cu._dictionary = list(dictionary)
        return cu

    @property
    def dictionary(self) -> list[str]:
        return list(self._dictionary)

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


def encode_column(values: Sequence, is_numeric: bool) -> ColumnCU:
    """One column's CU: a width-1 :func:`encode_rows` (NUMBER vector or
    sorted dictionary)."""
    matrix = np.empty((len(values), 1), dtype=object)
    matrix[:, 0] = values
    return encode_rows(matrix, [(0, is_numeric)])[0][0]


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
    carried: Optional[tuple[Sequence[ColumnCU], Sequence, Sequence]] = None,
) -> tuple[list[ColumnCU], tuple]:
    """Encode columns of a :func:`row_matrix`, block-wise.  ``specs`` is,
    per output column, ``(matrix column, is NUMBER)``.  All NUMBER columns
    are cast together; every VARCHAR2 column gets its own sorted
    dictionary.

    ``carried = (cus, keep, take)`` makes it a merge (delta repopulation):
    rows ``keep`` of ``cus[k]`` -- an outgoing unit's CU for ``specs[k]``
    -- then ``matrix``'s rows, in ``take`` order.  Each kind's merge kernel
    sits beside its encoder and yields exactly the CU that encoding the
    merged values would.

    Also returns the blocks the CUs are views of, each ``(spec indices,
    (k, n) array)`` or None: NUMBER values, and the int32 dictionary
    codes."""
    olds, keep, take = carried or ((), None, None)
    cus: list = [None] * len(specs)
    number_block = code_block = None
    numeric = [k for k, (__, is_numeric) in enumerate(specs) if is_numeric]
    strings = [k for k, (__, is_numeric) in enumerate(specs) if not is_numeric]

    def cells(k: int) -> list:
        return matrix[:, specs[k][0]].tolist()

    if numeric:
        blocks = _numeric_arrays(matrix[:, [specs[k][0] for k in numeric]])
        if carried is not None:
            blocks = _merge_numeric(
                [olds[k] for k in numeric], keep, blocks, take
            )
        # every column's (any NULL, any int) in two reductions, not two per
        # CU on first use: a wide build makes ~50 of these
        facts = [b.any(axis=0).tolist() for b in blocks[1:]]
        for j, k in enumerate(numeric):
            cu = cus[k] = NumericCU.from_arrays(*(b[:, j] for b in blocks))
            cu._any_null, cu._any_int = facts[0][j], facts[1][j]
        number_block = (numeric, blocks[0].T)
    if strings:
        encoded = _merge_sorted_columns(
            [olds[k] for k in strings], keep, [cells(k) for k in strings], take
        ) if carried else [_sorted_codes(cells(k)) for k in strings]
        block = np.array([codes for codes, __ in encoded], dtype=np.int32)
        for j, (k, (__, dictionary)) in enumerate(zip(strings, encoded)):
            cus[k] = DictionaryCU.from_codes(block[j], dictionary)
        code_block = (strings, block)
    return cus, (number_block, code_block)

