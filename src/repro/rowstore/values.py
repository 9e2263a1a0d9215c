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
            # the IMCS holds NUMBER as float64, exact for ints up to 2**53
            return isinstance(value, float) or abs(value) <= 2**53
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
    # name -> position map; positions never change (DROP COLUMN is
    # dictionary-only), so the map is built once in __post_init__
    _index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        self._index = {c.name: i for i, c in enumerate(self.columns)}

    # -- lookup --------------------------------------------------------
    def column_index(self, name: str) -> int:
        """Physical position of a live column in the stored row tuple."""
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"no such column: {name!r}")
        if name in self._dropped:
            raise KeyError(f"column {name!r} has been dropped")
        return i

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    @property
    def live_columns(self) -> list[Column]:
        return [c for c in self.columns if c.name not in self._dropped]

    @property
    def arity(self) -> int:
        """Stored row width (includes dropped columns)."""
        return len(self.columns)

    def is_dropped(self, name: str) -> bool:
        return name in self._dropped

    # -- mutation (DDL) ------------------------------------------------
    def drop_column(self, name: str) -> None:
        """Dictionary-only column drop."""
        self.column_index(name)  # raises if unknown or already dropped
        self._dropped.add(name)

    # -- row validation ------------------------------------------------
    def validate_row(self, values: tuple) -> None:
        """Raise ``ValueError`` unless ``values`` matches this schema."""
        if len(values) != self.arity:
            raise ValueError(
                f"row arity {len(values)} != schema arity {self.arity}"
            )
        for col, value in zip(self.columns, values):
            if col.name in self._dropped:
                continue
            if not col.validate(value):
                raise _invalid(col, value)

    def validate_value(self, col: Column, value: object) -> None:
        """Raise ``ValueError`` unless ``value`` is storable in ``col``."""
        if not col.validate(value):
            raise _invalid(col, value)

    def project(self, values: tuple, names: list[str]) -> tuple:
        """Extract the named columns from a stored row tuple."""
        return tuple(values[self.column_index(n)] for n in names)
