"""The QuerySCN: the standby's published consistency point.

"A recovery coordinator process tracks the progress of all the recovery
worker processes and establishes a consistency point up to which all
workers have completed redo apply.  This consistency point is exposed as
the 'QuerySCN' on ADG" (paper, II-A).  Because workers apply at different
rates the published values typically *leapfrog* rather than forming a
dense SCN sequence -- the history list lets tests assert exactly that.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.common.errors import InvalidStateError, ReproError
from repro.common.scn import NULL_SCN, SCN


class ListenerFanoutError(ReproError):
    """One or more publication listeners raised during fan-out.

    The publication itself is complete -- ``value``/``history`` advanced
    and **every** listener was notified (a poisoned listener must not
    leave later listeners, e.g. non-master RAC coordinators or the fleet
    router's per-member lag gauges, permanently behind).  The individual
    exceptions are kept on :attr:`errors`.
    """

    def __init__(self, scn: SCN, errors: list[BaseException]) -> None:
        self.scn = scn
        self.errors = errors
        detail = "; ".join(
            f"{type(e).__name__}: {e}" for e in errors
        )
        super().__init__(
            f"{len(errors)} listener(s) raised during publication of "
            f"QuerySCN {scn}: {detail}"
        )


class QuerySCNPublisher:
    """Holds the current QuerySCN and notifies listeners on advancement."""

    def __init__(self) -> None:
        self._value: SCN = NULL_SCN
        #: (simulated time, value) pairs, for lag plots (Fig. 11).
        self.history: list[tuple[float, SCN]] = []
        self._listeners: list[Callable[[SCN], None]] = []
        self._obs = obs.current()
        self.publications = 0
        obs.bind(self, {"publications": "adg.queryscn.publications"})

    @property
    def value(self) -> SCN:
        return self._value

    def subscribe(self, listener: Callable[[SCN], None]) -> None:
        """Register a callback fired after each publication (e.g. the
        local recovery coordinator of a non-master RAC instance)."""
        self._listeners.append(listener)

    def publish(self, scn: SCN, at_time: float = 0.0) -> None:
        if scn < self._value:
            raise InvalidStateError(
                f"QuerySCN cannot move backwards: {scn} < {self._value}"
            )
        if scn == self._value:
            return
        self._value = scn
        self.history.append((at_time, scn))
        self.publications += 1
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            tracer.record_published(scn)
        # Notify *every* listener even if one raises: the publication has
        # already happened (value/history advanced above), so aborting
        # the fan-out would leave later listeners permanently behind.
        errors: list[BaseException] = []
        for listener in self._listeners:
            try:
                listener(scn)
            except Exception as exc:  # noqa: BLE001 -- aggregated below
                errors.append(exc)
        if errors:
            raise ListenerFanoutError(scn, errors)

    def __repr__(self) -> str:
        return f"QuerySCNPublisher(value={self._value})"
