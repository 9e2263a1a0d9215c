"""Column types, schemas and row validation.

The paper's workload table has "101 columns (1 identity column, 50 number
columns and 50 varchar2 columns)"; NUMBER and VARCHAR2 are therefore the
two data types the reproduction needs, and they conveniently map onto the
two encoding families the IMCS implements (numeric arrays and dictionary
encoding).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: the IMCS holds NUMBER as float64, exact for ints up to 2**53
_EXACT = 2**53


class ColumnType(enum.Enum):
    """Supported column data types."""

    NUMBER = "number"
    VARCHAR2 = "varchar2"

    def validate(self, value: object) -> bool:
        """True if ``value`` is storable in a column of this type."""
        if value is None:
            return True  # NULLs are allowed in any column
        if self is ColumnType.NUMBER:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return False
            return isinstance(value, float) or abs(value) <= _EXACT
        return isinstance(value, str)


@dataclass(frozen=True, slots=True)
class Column:
    """One column definition."""

    name: str
    ctype: ColumnType
    nullable: bool = True

    def validate(self, value: object) -> bool:
        if value is None:
            return self.nullable
        return self.ctype.validate(value)


def _invalid(col: Column, value: object) -> ValueError:
    return ValueError(
        f"value {value!r} invalid for column {col.name} ({col.ctype.value})"
    )


@dataclass(slots=True)
class Schema:
    """An ordered set of columns.

    Supports Oracle's dictionary-only DROP COLUMN: the column is marked
    unused in metadata and projected out of reads, while the stored row
    images keep their original arity (no data blocks change -- which is
    why the standby can replay the DDL purely from a redo marker).
    """

    columns: list[Column]
    _dropped: set[str] = field(default_factory=set)
    # the compiled row check: (position, column, is_number, nullable) per
    # live column, by name in _live; positions never change (DROP COLUMN
    # is dictionary-only), and drop_column recompiles
    _checks: tuple = ()
    _live: dict[str, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        self._compile()

    def _compile(self) -> None:
        self._checks = tuple(
            (i, c, c.ctype is ColumnType.NUMBER, c.nullable)
            for i, c in enumerate(self.columns)
            if c.name not in self._dropped
        )
        self._live = {check[1].name: check for check in self._checks}

    # -- lookup --------------------------------------------------------
    def _check(self, name: str) -> tuple:
        check = self._live.get(name)
        if check is None:
            if name in self._dropped:
                raise KeyError(f"column {name!r} has been dropped")
            raise KeyError(f"no such column: {name!r}")
        return check

    def column_index(self, name: str) -> int:
        """Physical position of a live column in the stored row tuple."""
        return self._check(name)[0]

    def column(self, name: str) -> Column:
        return self._check(name)[1]

    @property
    def live_columns(self) -> list[Column]:
        return [check[1] for check in self._checks]

    @property
    def arity(self) -> int:
        """Stored row width (includes dropped columns)."""
        return len(self.columns)

    def is_dropped(self, name: str) -> bool:
        return name in self._dropped

    # -- mutation (DDL) ------------------------------------------------
    def drop_column(self, name: str) -> None:
        """Dictionary-only column drop."""
        self._check(name)  # raises if unknown or already dropped
        self._dropped.add(name)
        self._compile()

    # -- row validation ------------------------------------------------
    def validate_row(self, values: tuple) -> None:
        """Raise ``ValueError`` unless ``values`` matches this schema.

        Exact ``float``, in-range ``int`` and ``str`` values pass on a fast
        path; any other value (``bool``, numpy scalars, ``str`` subclasses)
        gets :meth:`ColumnType.validate`, so the accepted set is unchanged.
        """
        if len(values) != len(self.columns):
            raise ValueError(
                f"row arity {len(values)} != schema arity {self.arity}"
            )
        for i, col, is_number, nullable in self._checks:
            value = values[i]
            if value is None:
                if nullable:
                    continue
            else:
                kind = type(value)
                if is_number:
                    if kind is float or (
                        kind is int and -_EXACT <= value <= _EXACT
                    ):
                        continue
                elif kind is str:
                    continue
                if col.ctype.validate(value):
                    continue
            raise _invalid(col, value)

    def validate_value(self, name: str, value: object) -> int:
        """Raise unless ``value`` is storable in live column ``name``;
        return the column's position."""
        i, col, __, __ = self._check(name)
        if not col.validate(value):
            raise _invalid(col, value)
        return i

    def project(self, values: tuple, names: list[str]) -> tuple:
        """Extract the named columns from a stored row tuple."""
        return tuple(values[self.column_index(n)] for n in names)
