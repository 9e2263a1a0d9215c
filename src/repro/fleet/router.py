"""FleetRouter: lag- and load-aware session routing over a deployment's
standby members.

The router fronts a :class:`~repro.db.deployment.Deployment` the way
Oracle's Services Infrastructure fronts an ADG reader farm ("customers
can create three services: Standby-only, Primary-only, and
Primary-and-Standby"): clients connect through a service name, never
naming an instance, and the router picks the database — and, for
standby-routed services, the *member* — the session is pinned to, as a
typed :class:`~repro.db.services.RouteTarget`.  It is the one session
layer: a two-node deployment is routed over its single member.

Routing scores each qualifying member by ``published-QuerySCN lag +
LOAD_WEIGHT * active_sessions`` and picks the minimum (ties break by
member name, so decisions are deterministic).  A session only reads:
it has no write method, so a standby-routed one is read-only by
construction, and clients write on ``deployment.primary``.

**Admission.**  By default the router is unbounded.  With
``max_sessions`` set, :meth:`FleetRouter.connect` is admit-or-raise and
:meth:`FleetRouter.connect_queued` parks the request until a session
closes (or the timeout passes).

**Read-your-writes.**  A queued connect carrying a last-seen commitSCN
``C`` (``min_scn=C``) is only ever routed to a member whose published
QuerySCN already covers ``C`` — queries on that member run at its
QuerySCN, so the session can never observe a database state older than
its own writes.  The request waits in the
:class:`~repro.query.admission.AdmissionController` queue with an
eligibility predicate; every QuerySCN publication pumps the queue, so
the waiter admits the moment a member catches up (or expires with its
deadline error — never with a stale grant).

**Standby loss.**  The router registers on the deployment's
``on_standby_loss`` hook: when a member dismounts, its sessions are
drained and rebound to another qualifying member, failed over to the
primary (services that allow it), or marked lost.  The
``routed_unmounted`` counter — incremented if a session is ever bound
to or submits on an unmounted member — is the chaos invariant and must
stay zero.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import obs
from repro.common.errors import InvalidStateError
from repro.common.scn import SCN
from repro.db.deployment import Deployment
from repro.db.member import StandbyMember
from repro.db.sql import parse_query
from repro.query.admission import (
    AdmissionController,
    AdmissionTimeout,
    PoolExhaustedError,
)
from repro.query.service import QueryHandle
from repro.db.services import (
    PRIMARY_TARGET,
    Role,
    RouteTarget,
    Service,
    ServiceRegistry,
)

#: How many SCNs of lag one active session is "worth" in the routing
#: score -- the load-balancing half of the policy.
LOAD_WEIGHT = 16.0


class FleetSession:
    """One routed client connection, pinned to the database its service
    chose.

    Standby-bound sessions submit reads through their member's query
    service (or run SQL on it directly); primary-bound ones read the
    primary.  ``min_scn`` is the read-your-writes floor the session was
    granted with: no result it returns may be computed below it.
    """

    def __init__(
        self,
        router: "FleetRouter",
        service_name: str,
        target: RouteTarget,
        member: Optional[StandbyMember],
        min_scn: SCN = 0,
    ) -> None:
        self.router = router
        self.service_name = service_name
        self.target = target
        self.member = member
        self.min_scn = min_scn
        #: Bumped on every rebind (standby loss): drivers re-submit
        #: queries whose handle predates the current generation.
        self.generation = 0
        self.closed = False
        #: True when standby loss left no legal target for this session.
        self.lost = False

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def submit(
        self,
        table_name: str,
        predicates=None,
        columns=None,
        partitions=None,
    ) -> QueryHandle:
        """Run a scan on the session's routed database.  Returns a
        :class:`QueryHandle`; standby-bound sessions resolve it through
        the member's worker pool, primary-bound ones immediately."""
        if self.closed:
            raise InvalidStateError("session is closed")
        member = self.member
        if member is not None:
            if not member.mounted:
                self.router.routed_unmounted += 1
            if member.query_service is not None:
                handle = member.query_service.submit(
                    table_name, predicates, columns, partitions
                )
            else:
                result = member.query(
                    table_name, predicates, columns, partitions
                )
                handle = QueryHandle(member.published_scn, result=result)
        else:
            primary = self.router.fleet.primary
            result = primary.query(table_name, predicates, columns, partitions)
            handle = QueryHandle(primary.clock.current, result=result)
        if handle.scn < self.min_scn:
            self.router.ryw_violations += 1
        return handle

    def execute(self, sql: str, binds: Optional[dict[int, object]] = None):
        """Run a SELECT through the mini SQL dialect, synchronously on
        the routed database.  Returns a list of row tuples for
        projections, or the aggregate value list for aggregate queries."""
        if self.closed:
            raise InvalidStateError("session is closed")
        database = (
            self.member.standby if self.member is not None
            else self.router.fleet.primary
        )
        result = parse_query(sql).run(database, binds)
        return result if isinstance(result, list) else result.rows

    # ------------------------------------------------------------------
    # rebinding (standby loss)
    # ------------------------------------------------------------------
    def _rebind(self, new_member: StandbyMember) -> None:
        if self.member is not None:
            self.router._note_sessions(self.member, -1)
        self.member = new_member
        self.router._note_sessions(new_member, +1)
        self.target = RouteTarget(Role.STANDBY, new_member.name)
        self.generation += 1

    def _rebind_primary(self) -> None:
        if self.member is not None:
            self.router._note_sessions(self.member, -1)
        self.member = None
        self.target = PRIMARY_TARGET
        self.generation += 1

    def _mark_lost(self) -> None:
        self.lost = True
        self.generation += 1
        self.close()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.router._session_closed(self)

    def __enter__(self) -> "FleetSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FleetSession(service={self.service_name!r}, "
            f"target={self.target.describe()})"
        )


class PendingFleetSession:
    """A queued routed connect: resolves when a slot frees up *and* (for
    read-your-writes) a qualifying member exists."""

    __slots__ = ("service_name", "session", "timed_out", "granted_at")

    def __init__(self, service_name: str) -> None:
        self.service_name = service_name
        self.session: Optional[FleetSession] = None
        self.timed_out = False
        self.granted_at: Optional[float] = None

    @property
    def ready(self) -> bool:
        return self.session is not None

    def get(self) -> FleetSession:
        if self.timed_out:
            raise AdmissionTimeout(
                f"queued connect to {self.service_name!r} timed out"
            )
        if self.session is None:
            raise InvalidStateError("queued connect not granted yet")
        return self.session


class FleetRouter:
    """Routes service connections across a deployment's standby members."""

    def __init__(
        self, fleet: Deployment, max_sessions: Optional[int] = None
    ) -> None:
        self.fleet = fleet
        self.registry = ServiceRegistry(lambda: fleet.standby_mounted)
        self.admission = AdmissionController(
            limit=max_sessions, clock=lambda: fleet.sched.now
        )
        self._sessions: list[FleetSession] = []
        #: Plain decision tallies for reports: family -> service -> count.
        self.decisions: dict[str, dict[str, int]] = {
            family: {}
            for family in ("routed", "queued", "failed_over", "expired",
                           "drained")
        }
        #: Where sessions landed: target description -> count.
        self.routed_by_target: dict[str, int] = {}
        #: Read-your-writes audit: (min_scn, granted_scn, target) per
        #: connect that carried a floor.
        self.ryw_grants: list[tuple[SCN, SCN, str]] = []
        #: Invariant counters -- both must stay zero, always.
        self.ryw_violations = 0
        self.routed_unmounted = 0
        self._obs_counters: dict[tuple, object] = {}
        fleet.on_standby_loss.append(self._handle_standby_loss)
        for member in fleet.members:
            # per-member gauges: the Fig. 11 lag and the load signal
            obs.bind(member, {
                "lag_scns": "fleet.member.lag_scns",
                "active_sessions": "fleet.member.active_sessions",
            }, "gauge", member=member.name)
            member.standby.query_scn.subscribe(
                self._make_publish_listener(member)
            )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _count(self, family: str, service_name: str, target=None) -> None:
        per_service = self.decisions[family]
        per_service[service_name] = per_service.get(service_name, 0) + 1
        labels = {"service": service_name}
        if target is not None:
            labels["target"] = target
            self.routed_by_target[target] = (
                self.routed_by_target.get(target, 0) + 1
            )
        key = (family, service_name, target)
        counter = self._obs_counters.get(key)
        if counter is None:
            counter = obs.counter(f"fleet.router.{family}", **labels)
            self._obs_counters[key] = counter
        counter.inc()

    def _make_publish_listener(
        self, member: StandbyMember
    ) -> Callable[[SCN], None]:
        def on_publish(scn: SCN) -> None:
            member.lag_scns = self.fleet.member_lag(member)
            if self.admission.queue_depth:
                # a read-your-writes waiter may just have become eligible
                self.admission.pump()

        return on_publish

    def _note_sessions(self, member: StandbyMember, delta: int) -> None:
        """A session was bound to (+1) or left (-1) ``member``."""
        member.active_sessions = max(0, member.active_sessions + delta)

    # ------------------------------------------------------------------
    # member selection
    # ------------------------------------------------------------------
    def _candidates(self, min_scn: SCN) -> list[StandbyMember]:
        return [
            m for m in self.fleet.members
            if m.mounted and m.published_scn >= min_scn
        ]

    def select_member(self, min_scn: SCN = 0) -> Optional[StandbyMember]:
        """Pick the member a standby-routed session lands on, or None if
        no mounted member covers ``min_scn``."""
        candidates = self._candidates(min_scn)
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda m: (
                self.fleet.member_lag(m) + LOAD_WEIGHT * m.active_sessions,
                m.name,
            ),
        )

    # ------------------------------------------------------------------
    # connects
    # ------------------------------------------------------------------
    def _open(
        self, service_name: str, target: RouteTarget, min_scn: SCN
    ) -> FleetSession:
        """Open a session on ``target``, narrowing a standby target to a
        member.  One always qualifies: ``connect`` carries no floor and
        the registry routes to the standby only while a member is
        mounted, and a queued grant waits until a member covers its
        floor."""
        member = None
        if target.is_standby:
            member = self.select_member(min_scn)
            target = RouteTarget(Role.STANDBY, member.name)
            if not member.mounted:
                self.routed_unmounted += 1
            self._note_sessions(member, +1)
        session = FleetSession(self, service_name, target, member, min_scn)
        self._sessions.append(session)
        self._count("routed", service_name, target=target.describe())
        if min_scn > 0:
            granted_scn = (
                member.published_scn if member is not None
                else self.fleet.primary.clock.current
            )
            self.ryw_grants.append((min_scn, granted_scn, target.describe()))
            if granted_scn < min_scn:
                self.ryw_violations += 1
        return session

    def connect(self, service_name: str) -> FleetSession:
        """Admit immediately or raise (:class:`PoolExhaustedError` on
        capacity; ``InvalidStateError`` for a standby-only service with
        no member mounted)."""
        target = self.registry.route(service_name)  # refuse before a slot
        if not self.admission.try_admit():
            raise PoolExhaustedError(
                f"fleet router at capacity for service {service_name!r}"
            )
        return self._open(service_name, target, 0)

    def connect_queued(
        self,
        service_name: str,
        min_scn: SCN = 0,
        timeout: Optional[float] = None,
    ) -> PendingFleetSession:
        """Queue for a slot *and* (for standby-routed read-your-writes)
        a qualifying member; grants as soon as both hold."""
        service = self.registry.get(service_name).service
        pending = PendingFleetSession(service_name)

        def eligible() -> bool:
            if service is Service.PRIMARY_ONLY or self._candidates(min_scn):
                return True
            # every member is gone: PRIMARY_AND_STANDBY fails over at
            # grant time; STANDBY_ONLY must keep waiting (until expiry)
            return (
                not self.fleet.standby_mounted
                and service is Service.PRIMARY_AND_STANDBY
            )

        def grant() -> None:
            pending.session = self._open(
                service_name, self.registry.route(service_name), min_scn
            )
            pending.granted_at = self.fleet.sched.now

        def expired() -> None:
            pending.timed_out = True
            self._count("expired", service_name)

        self.admission.enqueue(
            grant, timeout=timeout, on_timeout=expired, eligible=eligible
        )
        if not pending.ready:
            self._count("queued", service_name)
        return pending

    def expire_waiters(self) -> int:
        return self.admission.expire_waiters()

    # ------------------------------------------------------------------
    # standby loss: drain + redistribute
    # ------------------------------------------------------------------
    def _handle_standby_loss(self, member: StandbyMember) -> None:
        for session in list(self._sessions):
            if session.closed or session.member is not member:
                continue
            self._count("drained", session.service_name)
            new_member = self.select_member(session.min_scn)
            if new_member is not None:
                session._rebind(new_member)
                self._count(
                    "routed", session.service_name,
                    target=session.target.describe(),
                )
            elif self.registry.get(
                session.service_name
            ).service.includes_primary:
                session._rebind_primary()
                self._count("failed_over", session.service_name)
                self._count(
                    "routed", session.service_name,
                    target=session.target.describe(),
                )
            else:
                session._mark_lost()
        # waiters pinned on the lost member's catch-up may now qualify
        # elsewhere (or fail over); re-drain
        self.admission.pump()

    # ------------------------------------------------------------------
    def _session_closed(self, session: FleetSession) -> None:
        if session.member is not None:
            self._note_sessions(session.member, -1)
        if session in self._sessions:
            self._sessions.remove(session)
        self.admission.release()


__all__ = [
    "FleetRouter",
    "FleetSession",
    "LOAD_WEIGHT",
    "PendingFleetSession",
]
