"""SessionWave: a simulated OLTAP client wave against a routed fleet.

Each client arrives at its scheduled time, optionally performs a primary
write-and-commit first (capturing the commitSCN as its read-your-writes
floor), then connects through the :class:`~repro.fleet.router.FleetRouter`
via the admission queue, runs one analytic scan on whatever target it was
granted, and disconnects.  The wave records, per client: queue wait,
end-to-end latency, the tier it landed on (``primary`` or a member name)
and whether it timed out or was lost to a standby failure.

The same driver powers the ``standby_loss_mid_wave`` chaos scenario and
``benchmarks/bench_reader_farm.py`` — the benchmark runs it twice (round
robin vs lag-aware) on the same seed and compares tail waits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import InvalidStateError
from repro.imcs.scan import Predicate
from repro.query.admission import AdmissionTimeout
from repro.sim.scheduler import Actor, Scheduler
from repro.db.deployment import Deployment
from repro.fleet.router import FleetRouter


@dataclass(slots=True)
class WaveConfig:
    """Shape of the client wave."""

    n_clients: int = 120
    #: Client arrivals per simulated second (uniformly spaced with
    #: seeded jitter).
    arrival_rate: float = 400.0
    #: Fraction of clients that write-and-commit first and carry the
    #: commitSCN as a read-your-writes floor.
    writer_fraction: float = 0.4
    #: Deadline for the queued connect; expiry surfaces as a timeout.
    connect_timeout: float = 2.0
    service_name: str = "reports"
    table_name: str = "T"
    #: Number column the analytic scan filters on.
    predicate_column: str = "n1"
    predicate_cardinality: int = 100
    #: Column writers mutate (must be updatable on the table).
    update_column: str = "n1"
    seed: int = 7
    poll_interval: float = 5e-4


@dataclass(slots=True)
class ClientRecord:
    """Outcome of one wave client."""

    index: int
    kind: str                     # "reader" | "writer"
    arrival: float
    min_scn: int = 0
    granted_at: Optional[float] = None
    done_at: Optional[float] = None
    tier: Optional[str] = None    # "primary" | member name
    timed_out: bool = False
    lost: bool = False
    resubmits: int = 0

    @property
    def wait(self) -> Optional[float]:
        if self.granted_at is None:
            return None
        return self.granted_at - self.arrival

    @property
    def latency(self) -> Optional[float]:
        if self.done_at is None:
            return None
        return self.done_at - self.arrival


class SessionWave(Actor):
    """Drives ``n_clients`` routed sessions through arrival → (write) →
    queued connect → scan → close."""

    def __init__(
        self,
        fleet: Deployment,
        router: FleetRouter,
        config: Optional[WaveConfig] = None,
        rowids: Optional[list] = None,
        start_at: float = 0.0,
    ) -> None:
        self.fleet = fleet
        self.router = router
        self.config = config or WaveConfig()
        #: Rowids writers pick their update victim from (required when
        #: ``writer_fraction > 0``).
        self.rowids = rowids or []
        self.name = "session-wave"
        self.node = None
        cfg = self.config
        rng = random.Random(cfg.seed)
        self._rng = rng
        spacing = 1.0 / cfg.arrival_rate
        at = start_at
        self.records: list[ClientRecord] = []
        self._arrivals: list[float] = []
        for i in range(cfg.n_clients):
            at += spacing * (0.5 + rng.random())
            kind = "writer" if rng.random() < cfg.writer_fraction else "reader"
            self._arrivals.append(at)
            self.records.append(ClientRecord(index=i, kind=kind, arrival=at))
        self._next_arrival = 0
        #: index -> (pending, record) while queued
        self._queued: dict[int, object] = {}
        #: index -> (session, handle, generation, record) while scanning
        self._scanning: dict[int, object] = {}

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return (
            self._next_arrival >= len(self.records)
            and not self._queued
            and not self._scanning
        )

    def finished_records(self) -> list[ClientRecord]:
        return [r for r in self.records if r.done_at is not None]

    # ------------------------------------------------------------------
    def _predicates(self) -> list[Predicate]:
        cfg = self.config
        value = float(self._rng.randrange(cfg.predicate_cardinality))
        return [Predicate.eq(cfg.predicate_column, value)]

    def _start_client(self, index: int) -> None:
        cfg = self.config
        record = self.records[index]
        min_scn = 0
        if record.kind == "writer" and self.rowids:
            # the write happens on the primary, synchronously; the commit
            # SCN becomes the client's read-your-writes floor
            primary = self.fleet.primary
            txn = primary.begin()
            rowid = self.rowids[self._rng.randrange(len(self.rowids))]
            value = float(self._rng.randrange(10_000))
            primary.update(
                txn, cfg.table_name, rowid, {cfg.update_column: value}
            )
            min_scn = primary.commit(txn)
        record.min_scn = min_scn
        self._queued[index] = (
            self.router.connect_queued(
                cfg.service_name,
                min_scn=min_scn,
                timeout=cfg.connect_timeout,
            ),
            record,
        )

    def _poll_queued(self, now: float) -> None:
        for index in list(self._queued):
            pending, record = self._queued[index]
            if pending.timed_out:
                record.timed_out = True
                record.done_at = now
                try:
                    pending.get()
                except AdmissionTimeout:
                    pass  # the deadline error is the expected surface
                del self._queued[index]
                continue
            if not pending.ready:
                continue
            session = pending.get()
            record.granted_at = (
                pending.granted_at if pending.granted_at is not None else now
            )
            record.tier = (
                session.member.name if session.member is not None
                else "primary"
            )
            del self._queued[index]
            self._submit(index, session, record)

    def _submit(self, index: int, session, record: ClientRecord) -> None:
        try:
            handle = session.submit(
                self.config.table_name, self._predicates()
            )
        except InvalidStateError:
            session.close()
            record.lost = True
            record.done_at = self.fleet.sched.now
            return
        self._scanning[index] = (session, handle, session.generation, record)

    def _poll_scanning(self, now: float) -> None:
        for index in list(self._scanning):
            session, handle, generation, record = self._scanning[index]
            if session.lost or session.closed:
                # standby loss left the session with no legal target
                record.lost = True
                record.done_at = now
                del self._scanning[index]
                continue
            if session.generation != generation:
                # rebound after standby loss: the old member's workers are
                # gone, so the in-flight handle will never resolve -- the
                # driver resubmits on the new target
                record.tier = (
                    session.member.name if session.member is not None
                    else "primary"
                )
                record.resubmits += 1
                del self._scanning[index]
                self._submit(index, session, record)
                continue
            if not handle.done:
                continue
            record.done_at = now
            session.close()
            del self._scanning[index]

    # ------------------------------------------------------------------
    def step(self, sched: Scheduler) -> Optional[float]:
        now = sched.now
        while (
            self._next_arrival < len(self.records)
            and self._arrivals[self._next_arrival] <= now
        ):
            self._start_client(self._next_arrival)
            self._next_arrival += 1
        # lazy deadline expiry for parked read-your-writes waiters
        self.router.expire_waiters()
        self._poll_queued(now)
        self._poll_scanning(now)
        if self.done:
            return None
        return self.config.poll_interval


__all__ = ["ClientRecord", "SessionWave", "WaveConfig"]
