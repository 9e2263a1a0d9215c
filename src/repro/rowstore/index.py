"""A unique hash index over one column.

The paper's OLTAP workload drives most of its operations through "fetch
operations via the index" on the identity column: point lookups, so the
index is one dict from key to row address.  NULL keys are not indexed
(Oracle's rule for entirely-NULL keys), so a NULL never matches; nor does
a key of the other kind, which never equals a stored key.  A second row
with a key already present is refused (ORA-00001) before it is written.

Visibility note: the index maps *current* key values to row addresses; the
row's own version chain then provides snapshot visibility (DESIGN §4).
"""

from __future__ import annotations

from repro.common.errors import InvalidStateError
from repro.common.ids import RowId


class UniqueViolationError(InvalidStateError):
    """A row's key is already indexed for another row (ORA-00001)."""


class HashIndex:
    """Unique index: key -> RowId, one dict."""

    __slots__ = ("column", "_map")

    def __init__(self, column: str) -> None:
        self.column = column
        self._map: dict[object, RowId] = {}

    def search(self, key) -> RowId | None:
        """Point lookup; None if the key is absent."""
        return self._map.get(key)

    def check(self, key, rowid: RowId | None = None) -> None:
        """Refuse ``key`` for ``rowid`` (a new row when None) if another
        row holds it; a NULL key never conflicts."""
        if key is not None and self._map.get(key, rowid) != rowid:
            raise UniqueViolationError(f"{self.column} = {key!r} exists")

    def insert(self, key, rowid: RowId) -> None:
        """Insert or overwrite; a NULL key is not indexed.  DML calls
        :meth:`check` first."""
        if key is not None:
            self._map[key] = rowid

    def delete(self, key) -> bool:
        """Remove ``key``.  Returns True if it was present."""
        return self._map.pop(key, None) is not None

    def clear(self) -> None:
        self._map.clear()
