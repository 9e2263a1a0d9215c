"""In-Memory Expressions (paper, section V).

"In-Memory Expressions [Mishra et al., VLDB'16] are now supported on the
Standby database and provide even faster performance for complex,
analytical expressions used in reporting queries."

An expression is a named, deterministic function over a row's columns.
When an object with registered expressions is (re)populated, the
expression's values are *materialised* as an extra column CU inside each
IMCU -- so scans can filter and project on the expression at columnar
speed instead of recomputing it per row.  Rows served through the
row-store reconcile path compute the expression on the fly, preserving
exact consistency.

Expressions are registered per database side (they are derived data with
no redo footprint, like the IMCUs themselves); registering one drops the
object's existing IMCUs so repopulation can materialise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.rowstore.values import Schema


@dataclass(frozen=True, slots=True)
class Expression:
    """A named virtual column.

    ``fn`` receives the input column values (in ``inputs`` order) and
    returns the expression value; it must be deterministic and total
    (return None for NULL-ish results rather than raising).
    ``is_numeric`` selects the columnar encoding of the materialised CU.
    """

    name: str
    inputs: tuple[str, ...]
    fn: Callable
    is_numeric: bool = True

    def evaluate(self, values: tuple, schema: Schema) -> object:
        args = [values[schema.column_index(c)] for c in self.inputs]
        return self.fn(*args)


class ExpressionSet:
    """The expressions registered for one in-memory object."""

    def __init__(self) -> None:
        self._expressions: dict[str, Expression] = {}

    def add(self, expression: Expression) -> None:
        if expression.name in self._expressions:
            raise ValueError(
                f"expression {expression.name!r} already registered"
            )
        self._expressions[expression.name] = expression

    def get(self, name: str) -> Optional[Expression]:
        return self._expressions.get(name)

    def names(self) -> list[str]:
        return list(self._expressions)

    def __len__(self) -> int:
        return len(self._expressions)

    def __iter__(self):
        return iter(self._expressions.values())


class RowResolver:
    """Resolves a column-or-expression name to a value for one row tuple.

    Used by the scan engine on the row-store reconcile path, where
    expression values are not materialised and must be computed.
    """

    def __init__(
        self, schema: Schema, expressions: Optional[ExpressionSet] = None
    ) -> None:
        self.schema = schema
        self.expressions = expressions

    def is_expression(self, name: str) -> bool:
        return (
            self.expressions is not None
            and self.expressions.get(name) is not None
        )

    def value(self, values: tuple, name: str) -> object:
        if self.expressions is not None:
            expression = self.expressions.get(name)
            if expression is not None:
                return expression.evaluate(values, self.schema)
        return values[self.schema.column_index(name)]

    def project(self, values: tuple, names: list[str]) -> tuple:
        return tuple(self.value(values, name) for name in names)
