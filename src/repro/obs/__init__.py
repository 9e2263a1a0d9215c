"""repro.obs -- first-class observability for the redo pipeline.

Three pieces (see DESIGN.md §10):

* :class:`~repro.obs.registry.MetricsRegistry` -- named counters /
  gauges / histograms / series with label support and deterministic
  snapshot-to-dict / JSON export;
* :class:`~repro.obs.lifecycle.RedoLifecycleTracer` -- stamps tracked
  redo records through the pipeline stages on the sim clock, yielding
  per-stage latency histograms and the end-to-end "redo visibility lag"
  (Fig. 11) from instruments instead of bench-side bookkeeping;
* :mod:`repro.obs.render` -- the plain-text tables and figures the
  benchmarks print.

A counter or gauge is a plain attribute its component names once, at
construction (``obs.bind(self, {"gaps_resolved": "redo.receiver.
gaps_resolved"})``).  While a registry is :func:`collecting` the
declaration lands there and the registry reads the attribute at snapshot
time; otherwise it does nothing, and :func:`histogram` / :func:`series` /
:func:`counter` return an instrument that records nothing::

    registry = MetricsRegistry()
    with obs.collecting(registry):
        deployment = Deployment.build(...)   # attaches a tracer too
    ...
    print(registry.snapshot().to_text())

``python -m tests.chaos --scenario baseline --json PATH`` writes the
snapshot of one chaos scenario run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.registry import (
    Counter,
    Histogram,
    Instrument,
    MetricsRegistry,
    MetricsSnapshot,
    Series,
)
from repro.obs.lifecycle import STAGES, RedoLifecycleTracer

_ACTIVE: list[MetricsRegistry] = []


class _Discard:
    """What a declaration outside :func:`collecting` returns."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def record(self, t: float, value: float) -> None:
        pass


_DISCARD = _Discard()


def current() -> Optional[MetricsRegistry]:
    """The innermost collecting registry, or None."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def collecting(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route instrument declarations to ``registry`` within the block."""
    _ACTIVE.append(registry)
    try:
        yield registry
    finally:
        _ACTIVE.pop()


def bind(
    owner, attrs: dict[str, str], kind: str = "counter", **labels
) -> None:
    """Name ``owner``'s numeric attributes to the collecting registry
    (``attrs``: attribute -> instrument name); a no-op outside one."""
    registry = current()
    if registry is not None:
        registry.bind(owner, attrs, kind, **labels)


def _declare(kind: str, name: str, labels: dict):
    registry = current()
    if registry is None:
        return _DISCARD
    return getattr(registry, kind)(name, **labels)


def counter(name: str, **labels) -> Counter:
    """A tally no component owns (one restart, one router decision)."""
    return _declare("counter", name, labels)


def histogram(name: str, **labels) -> Histogram:
    return _declare("histogram", name, labels)


def series(name: str, **labels) -> Series:
    return _declare("series", name, labels)


def tracer_of(registry: Optional[MetricsRegistry]) -> Optional[RedoLifecycleTracer]:
    """The registry's tracer, tolerating a None registry (hot-path sugar)."""
    return registry.tracer if registry is not None else None


__all__ = [
    "STAGES",
    "Counter",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RedoLifecycleTracer",
    "Series",
    "bind",
    "collecting",
    "counter",
    "current",
    "histogram",
    "series",
    "tracer_of",
]
