"""System Change Numbers and the cluster-wide SCN clock.

The SCN is the database's logical clock: every redo record is stamped with
the SCN at which its changes were made, and every query runs against a
snapshot SCN.  On a RAC cluster all instances share one SCN sequence (Oracle
synchronises the clock over the interconnect; here the instances literally
share one :class:`SCNClock` object, which models a perfectly synchronised
clock -- the strongest version of what Oracle provides).
"""

from __future__ import annotations

SCN = int

# SCN 0 is never allocated; it marks "no SCN" (e.g. an uncommitted
# transaction's commit SCN).
NULL_SCN: SCN = 0


class SCNClock:
    """Monotonically increasing SCN source shared by a database cluster."""

    def __init__(self, start: SCN = 1) -> None:
        if start < 1:
            raise ValueError("SCNs start at 1; 0 is reserved as NULL_SCN")
        self._current: SCN = start

    @property
    def current(self) -> SCN:
        """The most recently allocated SCN (without advancing the clock)."""
        return self._current

    def next(self) -> SCN:
        """Allocate and return a new, strictly higher SCN."""
        self._current += 1
        return self._current

    def __repr__(self) -> str:
        return f"SCNClock(current={self._current})"
