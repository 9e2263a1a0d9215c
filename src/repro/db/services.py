"""Database services: workload routing (paper, Fig. 2).

"In a typical configuration, customers can create three services:
Standby-only, Primary-only, and Primary-and-Standby using Oracle's
Services Infrastructure."  A session connects through a service name; the
registry resolves it to a typed :class:`RouteTarget` naming the database
role (and, in a reader farm, the specific standby member) the session is
pinned to, and the deployment's session API routes queries accordingly.

Routing used to hand out bare ``"primary"`` / ``"standby"`` strings;
:class:`RouteTarget` replaces that so fleet members are addressable
without string matching.  The classic two-node deployment is the
degenerate fleet of size one: its targets carry ``member=None`` and the
single standby is implied.  :class:`~repro.fleet.router.FleetRouter`
builds targets with ``member`` set to the chosen member's name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.errors import InvalidStateError, ObjectNotFoundError


class Role(enum.Enum):
    """Which database role a session lands on."""

    PRIMARY = "primary"
    STANDBY = "standby"


@dataclass(frozen=True, slots=True)
class RouteTarget:
    """A resolved routing decision: a role, optionally a fleet member.

    ``member`` is the name of the standby member the session is pinned to;
    ``None`` means "the deployment's only standby" (the degenerate fleet
    of size one) or, for primary targets, is meaningless.
    """

    role: Role
    member: Optional[str] = None

    @property
    def is_primary(self) -> bool:
        return self.role is Role.PRIMARY

    @property
    def is_standby(self) -> bool:
        return self.role is Role.STANDBY

    def describe(self) -> str:
        if self.member is None:
            return self.role.value
        return f"{self.role.value}:{self.member}"


#: The (memberless) targets the two-node deployment hands out.
PRIMARY_TARGET = RouteTarget(Role.PRIMARY)
STANDBY_TARGET = RouteTarget(Role.STANDBY)


class Service(enum.Enum):
    PRIMARY_ONLY = "primary_only"
    STANDBY_ONLY = "standby_only"
    PRIMARY_AND_STANDBY = "primary_and_standby"

    @property
    def includes_primary(self) -> bool:
        return self in (Service.PRIMARY_ONLY, Service.PRIMARY_AND_STANDBY)


@dataclass(frozen=True, slots=True)
class ServiceDefinition:
    name: str
    service: Service


class ServiceRegistry:
    """Named services and the sessions' routing decisions.

    ``standby_available`` is an optional liveness probe (e.g. "is the
    standby's coordinator still scheduled?" or "is any fleet member still
    mounted?").  When it reports the standby side down,
    PRIMARY_AND_STANDBY services fail over to the primary instead of
    handing out dead routes, and STANDBY_ONLY connects fail fast.
    """

    def __init__(
        self,
        standby_available: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._services: dict[str, ServiceDefinition] = {}
        self._standby_available = standby_available

    def standby_up(self) -> bool:
        if self._standby_available is None:
            return True
        return bool(self._standby_available())

    def create(self, name: str, service: Service) -> ServiceDefinition:
        if name in self._services:
            raise InvalidStateError(f"service {name!r} already exists")
        definition = ServiceDefinition(name, service)
        self._services[name] = definition
        return definition

    def get(self, name: str) -> ServiceDefinition:
        try:
            return self._services[name]
        except KeyError:
            raise ObjectNotFoundError(f"no such service: {name!r}")

    def route(self, name: str, prefer_standby: bool = True) -> RouteTarget:
        """Resolve a service to a typed :class:`RouteTarget`.

        For PRIMARY_AND_STANDBY services, read-only work prefers the
        standby (the paper's offloading rationale) unless told otherwise.
        The targets carry ``member=None``; a fleet router narrows standby
        targets to a specific member.
        """
        definition = self.get(name)
        service = definition.service
        if service is Service.PRIMARY_ONLY:
            return PRIMARY_TARGET
        if service is Service.STANDBY_ONLY:
            if not self.standby_up():
                raise InvalidStateError(
                    f"service {name!r} is standby-only and no standby "
                    "is mounted"
                )
            return STANDBY_TARGET
        if not self.standby_up():
            return PRIMARY_TARGET  # failover: never hand out a dead route
        return STANDBY_TARGET if prefer_standby else PRIMARY_TARGET

    def __contains__(self, name: str) -> bool:
        return name in self._services

    def __len__(self) -> int:
        return len(self._services)
