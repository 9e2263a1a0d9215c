"""A miniature SQL layer for the paper's evaluation queries.

The paper's workload issues bind-variable queries like Table 1's

    SELECT * FROM C101_6P1M_HASH WHERE n1 = :1
    SELECT * FROM C101_6P1M_HASH WHERE c1 = :2

This module parses exactly that shape -- projection or aggregates, one
table, an optional ``PARTITION (name)`` clause, and an ``AND``-conjunction
of simple predicates with literals or ``:n`` binds -- and executes it
against the primary, a standby or a standby member: any reader with
:class:`~repro.db.features.ReadSide`'s ``query(table, predicates,
columns, partitions)`` and ``aggregate(table, specs, predicates,
partitions)``.

It is intentionally tiny: no joins, no subqueries, no GROUP BY, no ORDER
BY.  The point is that examples and benchmarks can state workloads in the
paper's own vocabulary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.imcs.aggregate import AggregateSpec
from repro.imcs.scan import Predicate

_AGG_RE = re.compile(
    r"^(count|sum|avg|min|max)\s*\(\s*(\*|[A-Za-z_]\w*)\s*\)$", re.IGNORECASE
)
_QUERY_RE = re.compile(
    r"^\s*select\s+(?P<select>.+?)\s+from\s+(?P<table>[A-Za-z_]\w*)"
    r"(?:\s+partition\s*\(\s*(?P<partition>\w+)\s*\))?"
    r"(?:\s+where\s+(?P<where>.+?))?"
    r"\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_PRED_RE = re.compile(
    r"^\s*(?P<column>[A-Za-z_]\w*)\s*"
    r"(?:(?P<op><=|>=|!=|<>|=|<|>)\s*(?P<value>\S+)"
    r"|between\s+(?P<lo>\S+)\s+and\s+(?P<hi>\S+)"
    r"|is\s+(?P<notnull>not\s+)?null)\s*$",
    re.IGNORECASE,
)


class SQLSyntaxError(ValueError):
    """The statement does not fit the supported dialect."""


@dataclass(frozen=True, slots=True)
class _Term:
    """A literal value or a bind placeholder in a predicate."""

    bind: Optional[int] = None
    literal: object = None

    def resolve(self, binds: dict[int, object]) -> object:
        if self.bind is None:
            return self.literal
        try:
            return binds[self.bind]
        except KeyError:
            raise SQLSyntaxError(f"missing bind :{self.bind}")


@dataclass(frozen=True, slots=True)
class _PredicateTemplate:
    column: str
    op: str
    term: Optional[_Term] = None
    term2: Optional[_Term] = None

    def instantiate(self, binds: dict[int, object]) -> Predicate:
        value = self.term.resolve(binds) if self.term is not None else None
        value2 = self.term2.resolve(binds) if self.term2 is not None else None
        return Predicate(self.column, self.op, value, value2)


@dataclass(slots=True)
class ParsedQuery:
    """A parsed SELECT statement, executable with bind values."""

    table: str
    columns: Optional[list[str]]  # None = SELECT *
    aggregates: list[tuple[str, Optional[str]]] = field(default_factory=list)
    predicates: list[_PredicateTemplate] = field(default_factory=list)
    partition: Optional[str] = None

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)

    # ------------------------------------------------------------------
    def run(self, database, binds: Optional[dict[int, object]] = None):
        """Execute against a primary, a standby or a standby member.

        Returns a :class:`ScanResult` for projections, or a list of
        aggregate values (one per select-list entry) for aggregates.
        """
        binds = binds or {}
        predicates = [t.instantiate(binds) for t in self.predicates]
        partitions = [self.partition] if self.partition else None
        if not self.is_aggregate:
            return database.query(
                self.table, predicates, self.columns, partitions
            )
        # aggregation push-down (section V): fold inside the scan
        return database.aggregate(
            self.table,
            [AggregateSpec(fn, col) for fn, col in self.aggregates],
            predicates,
            partitions,
        ).values


# ----------------------------------------------------------------------
def _parse_term(token: str) -> _Term:
    token = token.strip()
    if token.startswith(":"):
        try:
            return _Term(bind=int(token[1:]))
        except ValueError:
            raise SQLSyntaxError(f"bad bind variable {token!r}")
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return _Term(literal=token[1:-1])
    try:
        return _Term(literal=int(token))
    except ValueError:
        pass
    try:
        return _Term(literal=float(token))
    except ValueError:
        raise SQLSyntaxError(f"unparseable value {token!r}")


def _parse_predicate(text: str) -> _PredicateTemplate:
    match = _PRED_RE.match(text)
    if match is None:
        raise SQLSyntaxError(f"unsupported predicate: {text.strip()!r}")
    column = match.group("column")
    if match.group("op"):
        op = match.group("op")
        if op == "<>":
            op = "!="
        return _PredicateTemplate(column, op, _parse_term(match.group("value")))
    if match.group("lo"):
        return _PredicateTemplate(
            column, "between",
            _parse_term(match.group("lo")), _parse_term(match.group("hi")),
        )
    op = "is_not_null" if match.group("notnull") else "is_null"
    return _PredicateTemplate(column, op)


def parse_query(sql: str) -> ParsedQuery:
    """Parse one SELECT statement of the supported dialect."""
    match = _QUERY_RE.match(sql)
    if match is None:
        raise SQLSyntaxError(f"unsupported statement: {sql.strip()!r}")
    select = match.group("select").strip()
    query = ParsedQuery(
        table=match.group("table"),
        columns=None,
        partition=match.group("partition"),
    )
    if select != "*":
        items = [item.strip() for item in select.split(",")]
        agg_matches = [_AGG_RE.match(item) for item in items]
        if any(agg_matches):
            if not all(agg_matches):
                raise SQLSyntaxError("cannot mix aggregates and plain columns")
            for m in agg_matches:
                fn = m.group(1).lower()
                col = None if m.group(2) == "*" else m.group(2)
                if fn != "count" and col is None:
                    raise SQLSyntaxError(f"{fn}(*) is not valid")
                query.aggregates.append((fn, col))
        else:
            query.columns = items
    where = match.group("where")
    if where:
        for clause in _split_conjunction(where):
            query.predicates.append(_parse_predicate(clause))
    return query


def _split_conjunction(where: str) -> list[str]:
    """Split a WHERE clause on AND, re-joining the AND that belongs to a
    BETWEEN ... AND ... predicate."""
    raw = re.split(r"\s+and\s+", where, flags=re.IGNORECASE)
    clauses: list[str] = []
    i = 0
    while i < len(raw):
        piece = raw[i]
        if re.search(r"\bbetween\s+\S+\s*$", piece, re.IGNORECASE):
            if i + 1 >= len(raw):
                raise SQLSyntaxError(f"dangling BETWEEN in {where!r}")
            piece = f"{piece} and {raw[i + 1]}"
            i += 1
        clauses.append(piece)
        i += 1
    return clauses
