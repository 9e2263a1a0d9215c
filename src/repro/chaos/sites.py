"""Named injection sites: where faults can attach to the pipeline.

Every perturbable component declares a site at construction::

    from repro.chaos import sites
    self._chaos = sites.declare("redo.ship", owner=self)

and consults it on its hot path only when armed::

    chaos = self._chaos
    if chaos.injectors is not None:          # one attr load + None check
        decision = chaos.consult("ship", thread=..., position=...)
        ...

When no :class:`SiteRegistry` is recording (normal operation -- unit
tests, benchmarks, examples), ``declare`` hands back a free-standing site
whose ``injectors`` stays ``None`` forever, so the instrumentation is a
single attribute check: zero-cost by construction.

A chaos harness records sites by activating a registry around deployment
construction::

    registry = SiteRegistry()
    with sites.recording(registry):
        deployment = Deployment.build(...)
    registry.install("redo.ship", my_injector)

Installation by name supports *pending* injectors: installing at a name
nobody has declared yet parks the injector, and it attaches the moment a
matching site is declared (e.g. ``db.failover``, declared only when
:func:`repro.db.failover.failover` actually runs).
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

#: The injection sites wired into the pipeline (components may declare
#: more; these are the ones the stock instrumentation provides).
KNOWN_SITES = (
    "redo.ship",           # LogShipper: one event per shipped batch
    "redo.receive",        # RedoReceiver: one event per landed batch
    "adg.apply_worker",    # RecoveryWorker: one event per step
    "adg.queryscn_publish",  # RecoveryCoordinator: one event per publish
    "rac.message",         # Interconnect: one event per message send
    "flush.worklink",      # InvalidationFlushComponent: per flush call
    "db.failover",         # failover(): role-transition milestones
    "query.pool",          # QueryService: per dequeued morsel
    "restart.checkpoint",  # CheckpointWriter: per object capture
    "cdc.emit",            # CDCPump: per subscriber delivery round
    "cdc.backfill",        # BackfillEngine: per window open/close
)


class Action(enum.Enum):
    """What an injector tells the component to do with the current event."""

    PROCEED = "proceed"      # no fault: normal behaviour
    DROP = "drop"            # lose the batch / message entirely
    DELAY = "delay"          # deliver, but ``decision.delay`` seconds late
    DUPLICATE = "duplicate"  # deliver twice
    STALL = "stall"          # skip this unit of work; retry next step


@dataclass(frozen=True, slots=True)
class Decision:
    """An injector's verdict for one event."""

    action: Action = Action.PROCEED
    #: Extra one-way latency in simulated seconds (``Action.DELAY``).
    delay: float = 0.0


#: Shared "no fault" decision -- returned on every un-faulted event.
PROCEED = Decision()


class InjectionSite:
    """One declared injection point.

    ``injectors`` is ``None`` until a fault installs itself -- the hot
    path guard.  Multiple injectors may be armed; the first non-PROCEED
    decision wins (faults are expected to target disjoint event windows).
    """

    __slots__ = ("name", "owner", "injectors")

    def __init__(self, name: str, owner: object = None) -> None:
        self.name = name
        self.owner = owner
        self.injectors: Optional[list] = None

    # -- fault side ----------------------------------------------------
    def attach(self, injector) -> None:
        if self.injectors is None:
            self.injectors = []
        if injector not in self.injectors:
            self.injectors.append(injector)

    def detach(self, injector) -> None:
        if self.injectors is None:
            return
        if injector in self.injectors:
            self.injectors.remove(injector)
        if not self.injectors:
            self.injectors = None

    # -- component side ------------------------------------------------
    def consult(self, event: str, **context) -> Decision:
        """Ask the armed injectors about one event.

        Only called after the ``injectors is not None`` guard, so the
        un-faulted path never reaches here.
        """
        if self.injectors is None:
            return PROCEED
        for injector in list(self.injectors):
            decision = injector.decide(self, event, context)
            if decision.action is not Action.PROCEED:
                return decision
        return PROCEED

    def __repr__(self) -> str:
        armed = len(self.injectors) if self.injectors else 0
        return f"<InjectionSite {self.name!r} armed={armed}>"


class SiteRegistry:
    """Collects the sites declared while it is recording."""

    def __init__(self) -> None:
        self._sites: dict[str, list[InjectionSite]] = {}
        #: Injectors installed before any matching site was declared.
        self._pending: dict[str, list] = {}

    # -- declaration ----------------------------------------------------
    def register(self, site: InjectionSite) -> None:
        self._sites.setdefault(site.name, []).append(site)
        for injector in self._pending.get(site.name, ()):
            site.attach(injector)

    def sites(self, name: str) -> list[InjectionSite]:
        return list(self._sites.get(name, ()))

    # -- installation ---------------------------------------------------
    def install(
        self,
        name: str,
        injector,
        where: Optional[Callable[[InjectionSite], bool]] = None,
    ) -> list[InjectionSite]:
        """Attach ``injector`` to every site named ``name`` (optionally
        filtered by ``where``); future declarations of ``name`` attach it
        too (pending install)."""
        attached = []
        for site in self._sites.get(name, ()):
            if where is None or where(site):
                site.attach(injector)
                attached.append(site)
        if where is None:
            self._pending.setdefault(name, []).append(injector)
        return attached

    def uninstall(self, injector) -> None:
        for sites_ in self._sites.values():
            for site in sites_:
                site.detach(injector)
        for pending in self._pending.values():
            if injector in pending:
                pending.remove(injector)


# ----------------------------------------------------------------------
# module-level recording stack
# ----------------------------------------------------------------------
_ACTIVE: list[SiteRegistry] = []


def declare(name: str, owner: object = None) -> InjectionSite:
    """Declare an injection site; called by components at construction.

    Registers with the innermost recording registry, if any; otherwise the
    site floats free and can never be armed (the zero-cost default).
    """
    site = InjectionSite(name, owner)
    if _ACTIVE:
        _ACTIVE[-1].register(site)
    return site


@contextmanager
def recording(registry: SiteRegistry) -> Iterator[SiteRegistry]:
    """Route ``declare`` calls to ``registry`` while the context is open."""
    _ACTIVE.append(registry)
    try:
        yield registry
    finally:
        _ACTIVE.remove(registry)
