"""Database services: workload routing (paper, Fig. 2).

"In a typical configuration, customers can create three services:
Standby-only, Primary-only, and Primary-and-Standby using Oracle's
Services Infrastructure."  A session connects through a service name; the
registry resolves it to a typed :class:`RouteTarget` naming the database
role the session is pinned to, and
:class:`~repro.fleet.router.FleetRouter` narrows a standby target to the
member it chose (``member`` set to the member's name).  The registry's
own targets carry ``member=None``.
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
    ``None`` means the registry has not narrowed the target to a member
    or, for primary targets, is meaningless.
    """

    role: Role
    member: Optional[str] = None

    @property
    def is_standby(self) -> bool:
        return self.role is Role.STANDBY

    def describe(self) -> str:
        if self.member is None:
            return self.role.value
        return f"{self.role.value}:{self.member}"


#: The (memberless) targets the registry hands out.
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

    ``standby_available`` is the liveness probe ("is any fleet member
    still mounted?").  When it reports the standby side down,
    PRIMARY_AND_STANDBY services fail over to the primary instead of
    handing out dead routes, and STANDBY_ONLY connects fail fast.
    """

    def __init__(self, standby_available: Callable[[], bool]) -> None:
        self._services: dict[str, ServiceDefinition] = {}
        self._standby_available = standby_available

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

    def route(self, name: str) -> RouteTarget:
        """Resolve a service to a typed :class:`RouteTarget`.

        PRIMARY_AND_STANDBY services send their read-only work to the
        standby (the paper's offloading rationale) while one is mounted.
        The targets carry ``member=None``; a fleet router narrows standby
        targets to a specific member.
        """
        service = self.get(name).service
        if service is Service.PRIMARY_ONLY:
            return PRIMARY_TARGET
        if self._standby_available():
            return STANDBY_TARGET
        if service is Service.STANDBY_ONLY:
            raise InvalidStateError(
                f"service {name!r} is standby-only and no standby is mounted"
            )
        return PRIMARY_TARGET  # failover: never hand out a dead route
