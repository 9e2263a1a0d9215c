"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch one
type at API boundaries.  Specific subclasses mirror well-known Oracle error
conditions where a direct analogue exists (e.g. ``ORA-01555 snapshot too
old`` -> :class:`SnapshotTooOldError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class LatchBusyError(ReproError):
    """A latch acquisition failed because another holder owns it.

    In the cooperative simulation latches are non-blocking: an actor that
    fails to get a latch yields and retries on its next step, just like a
    spinning process would.
    """


class SnapshotTooOldError(ReproError):
    """A consistent read could not reconstruct a version old enough.

    Raised when the undo (version chain) required to produce a block image
    as of the requested SCN has been truncated.  Analogue of ORA-01555.
    """


class ObjectNotFoundError(ReproError):
    """The referenced table/partition/index does not exist."""


class NotInMemoryError(ReproError):
    """An IMCS operation referenced an object not enabled for in-memory."""


class InvalidStateError(ReproError):
    """An operation was attempted in a state that does not allow it.

    Examples: committing an already-committed transaction, running DML
    against a standby (read-only) database, publishing a QuerySCN lower
    than the current one.
    """


class RedoCorruptionError(ReproError):
    """A redo stream failed validation (out-of-order SCNs, bad checksum)."""
