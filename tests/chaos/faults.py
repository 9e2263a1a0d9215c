"""Composable fault primitives.

Two families:

* **site faults** (:class:`SiteFault` subclasses) install themselves as
  injectors at a named injection site when triggered and disarm after
  consuming ``count`` events: :class:`Drop`, :class:`Delay`,
  :class:`Duplicate`, :class:`Reorder`, :class:`Stall`,
  :class:`Partition`;
* **direct faults** act on the deployment when triggered:
  :class:`CrashActor` (with optional restart -- the recoverable form) and
  :class:`RestartStandby` (the paper's section III-E instance bounce).

The :class:`Repeat` wrapper re-triggers a fault factory with an
(optionally backing-off) interval.

All state a fault mutates lives on the fault instance and the simulated
scheduler, so a plan replayed from the same seed reproduces the same
sequence of fault events byte for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.chaos.sites import Action, Decision, InjectionSite, PROCEED

if TYPE_CHECKING:  # pragma: no cover
    from tests.chaos.harness import ChaosContext


class Fault:
    """Base: something a fault plan triggers."""

    def describe(self) -> str:
        return type(self).__name__

    def trigger(self, ctx: "ChaosContext") -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


# ----------------------------------------------------------------------
# site-mediated faults
# ----------------------------------------------------------------------
class SiteFault(Fault):
    """Installs itself at ``site_name`` and faults the next ``count``
    events (events the ``where`` filter rejects pass through unfaulted and
    uncounted)."""

    def __init__(
        self,
        site_name: str,
        count: int = 1,
        where: Optional[Callable[[InjectionSite, str, dict], bool]] = None,
    ) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.site_name = site_name
        self.count = count
        self.where = where
        self.remaining = count
        self.fired = 0
        self._ctx: Optional["ChaosContext"] = None

    def describe(self) -> str:
        return f"{type(self).__name__}({self.site_name}, count={self.count})"

    # -- Fault ----------------------------------------------------------
    def trigger(self, ctx: "ChaosContext") -> None:
        self._ctx = ctx
        ctx.registry.install(self.site_name, self)
        ctx.note("arm", self.describe())

    def cancel(self, ctx: "ChaosContext") -> None:
        """Disarm early (a :class:`Partition` heals this way)."""
        if self.remaining > 0:
            self.remaining = 0
            ctx.registry.uninstall(self)
            ctx.note("cancel", self.describe())

    # -- Injector --------------------------------------------------------
    def decide(self, site: InjectionSite, event: str, context: dict) -> Decision:
        if self.remaining <= 0:
            return PROCEED
        if self.where is not None and not self.where(site, event, context):
            return PROCEED
        decision = self._decide(site, event, context)
        if decision.action is Action.PROCEED:
            return decision
        self.remaining -= 1
        self.fired += 1
        if self._ctx is not None:
            self._ctx.note(
                "fire",
                f"{self.describe()} -> {decision.action.value} "
                f"at {site.name}[{event}]",
            )
            if self.remaining == 0:
                self._ctx.registry.uninstall(self)
        return decision

    def _decide(self, site: InjectionSite, event: str, context: dict) -> Decision:
        raise NotImplementedError


class Drop(SiteFault):
    """Lose the next ``count`` events at a site entirely.

    On ``redo.ship`` / ``redo.receive`` this creates an archive gap the
    receiver must FAL-heal; on ``rac.message`` the message vanishes."""

    def _decide(self, site, event, context) -> Decision:
        return Decision(Action.DROP)


class Delay(SiteFault):
    """Add ``by`` simulated seconds of latency to the next ``count``
    events (FIFO channels absorb the delay without reordering)."""

    def __init__(self, site_name: str, by: float, count: int = 1, where=None) -> None:
        super().__init__(site_name, count, where)
        self.by = by

    def describe(self) -> str:
        return (
            f"Delay({self.site_name}, by={self.by:g}, count={self.count})"
        )

    def _decide(self, site, event, context) -> Decision:
        return Decision(Action.DELAY, delay=self.by)


class Duplicate(SiteFault):
    """Deliver the next ``count`` events twice (the receiver's idempotent
    redelivery handling must discard the copies)."""

    def _decide(self, site, event, context) -> Decision:
        return Decision(Action.DUPLICATE)


class Reorder(SiteFault):
    """Make batches overtake each other: every other faulted event is
    held back by ``overtake`` seconds so the following one lands first.

    The late batch shows up at the receiver as a gap (FAL-healed) followed
    by a duplicate redelivery (discarded) -- exactly the out-of-order
    arrival the transport must survive."""

    def __init__(
        self,
        site_name: str,
        count: int = 2,
        overtake: float = 0.02,
        where=None,
    ) -> None:
        super().__init__(site_name, count, where)
        self.overtake = overtake
        self._parity = 0

    def describe(self) -> str:
        return (
            f"Reorder({self.site_name}, count={self.count}, "
            f"overtake={self.overtake:g})"
        )

    def _decide(self, site, event, context) -> Decision:
        self._parity ^= 1
        if self._parity:
            return Decision(Action.DELAY, delay=self.overtake)
        return Decision(Action.DELAY, delay=0.0)


class Stall(SiteFault):
    """Make a component skip its next ``count`` work opportunities:
    a recovery worker's apply steps, the coordinator's QuerySCN
    publication, or the flush component's worklink draining."""

    def _decide(self, site, event, context) -> Decision:
        return Decision(Action.STALL)


class Partition(SiteFault):
    """A network partition between two instances for ``duration``
    simulated seconds: matching messages are buffered (delayed until the
    partition heals plus normal latency), as a TCP-like transport with
    retransmission would behave.  FIFO order per channel is preserved."""

    def __init__(
        self,
        between: tuple[int, int],
        duration: float,
        site_name: str = "rac.message",
    ) -> None:
        super().__init__(site_name, count=1_000_000)
        self.between = frozenset(between)
        self.duration = duration
        self._heals_at: Optional[float] = None

    def describe(self) -> str:
        a, b = sorted(self.between)
        return (
            f"Partition({self.site_name}, between={a}<->{b}, "
            f"duration={self.duration:g})"
        )

    def trigger(self, ctx: "ChaosContext") -> None:
        self._heals_at = ctx.sched.now + self.duration
        super().trigger(ctx)
        ctx.sched.call_at(self._heals_at, lambda: self.cancel(ctx))

    def _decide(self, site, event, context) -> Decision:
        src, dst = context.get("src"), context.get("dst")
        if {src, dst} != self.between:
            return PROCEED
        assert self._heals_at is not None
        remaining = self._heals_at - self._ctx.sched.now
        if remaining <= 0:
            return PROCEED
        return Decision(Action.DELAY, delay=remaining)


# ----------------------------------------------------------------------
# direct faults
# ----------------------------------------------------------------------
class CrashActor(Fault):
    """Kill scheduler actors whose name starts with ``prefix``; optionally
    restart them after ``restart_after`` seconds (the recoverable
    process-crash form)."""

    def __init__(self, prefix: str, restart_after: Optional[float] = None) -> None:
        self.prefix = prefix
        self.restart_after = restart_after

    def describe(self) -> str:
        suffix = (
            f", restart_after={self.restart_after:g}"
            if self.restart_after is not None
            else ""
        )
        return f"CrashActor({self.prefix!r}{suffix})"

    def trigger(self, ctx: "ChaosContext") -> None:
        victims = [
            actor
            for actor in ctx.sched.actors
            if actor.name.startswith(self.prefix)
        ]
        for actor in victims:
            ctx.sched.remove_actor(actor)
            ctx.note("fire", f"{self.describe()} killed {actor.name}")
            if self.restart_after is not None:
                ctx.sched.call_after(
                    self.restart_after,
                    lambda actor=actor: self._restart(ctx, actor),
                )
        if not victims:
            ctx.note("fire", f"{self.describe()} found no matching actor")

    def _restart(self, ctx: "ChaosContext", actor) -> None:
        ctx.sched.add_actor(actor)
        ctx.note("fire", f"{self.describe()} restarted {actor.name}")


class RestartStandby(Fault):
    """Bounce the standby instance (paper, III-E): every DBIM-on-ADG
    structure -- journal, commit table, IMCUs -- is volatile and lost."""

    def describe(self) -> str:
        return "RestartStandby()"

    def trigger(self, ctx: "ChaosContext") -> None:
        ctx.deployment.standby.restart()
        ctx.note("fire", f"{self.describe()} bounced the standby instance")


# ----------------------------------------------------------------------
# wrapper
# ----------------------------------------------------------------------
class Repeat(Fault):
    """Trigger a fresh fault from ``factory`` ``times`` times, the gaps
    growing by ``backoff`` (retry-with-backoff for recoverable faults)."""

    def __init__(
        self,
        factory: Callable[[], Fault],
        times: int,
        interval: float,
        backoff: float = 1.0,
    ) -> None:
        if times < 1:
            raise ValueError("times must be >= 1")
        self.factory = factory
        self.times = times
        self.interval = interval
        self.backoff = backoff

    def describe(self) -> str:
        return (
            f"Repeat(x{self.times}, interval={self.interval:g}, "
            f"backoff={self.backoff:g})"
        )

    def trigger(self, ctx: "ChaosContext") -> None:
        delay = 0.0
        gap = self.interval
        for __ in range(self.times):
            fault = self.factory()
            if delay == 0.0:
                fault.trigger(ctx)
            else:
                ctx.sched.call_after(
                    delay, lambda fault=fault: fault.trigger(ctx)
                )
            delay += gap
            gap *= self.backoff
