"""The DDL Information Table (paper, section III-G).

"DBIM-on-ADG infrastructure therefore introduces redo markers in the redo
logs in response to DDL operations. [...] Redo markers are mined by the
DBIM-on-ADG Mining Component and the information therein buffered in a
separate DDL Information Table, similar to the IM-ADG Commit Table.  At the
time of advancing the QuerySCN, IMCUs for the particular object are
dropped, if the definition of the object has changed."
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.common.scn import SCN
from repro.redo.records import DDLMarkerPayload


@dataclass(frozen=True, slots=True)
class DDLEntry:
    scn: SCN
    payload: DDLMarkerPayload


class DDLInformationTable:
    """SCN-sorted buffer of mined redo markers."""

    def __init__(self) -> None:
        self._entries: list[DDLEntry] = []

    def add(self, scn: SCN, payload: DDLMarkerPayload) -> None:
        position = bisect.bisect_right(
            self._entries, scn, key=lambda e: e.scn
        )
        self._entries.insert(position, DDLEntry(scn, payload))

    def take_through(self, scn: SCN) -> list[DDLEntry]:
        """Remove and return every entry with SCN <= ``scn``."""
        cut = bisect.bisect_right(self._entries, scn, key=lambda e: e.scn)
        taken = self._entries[:cut]
        del self._entries[:cut]
        return taken

    def clear(self) -> None:
        self._entries = []
