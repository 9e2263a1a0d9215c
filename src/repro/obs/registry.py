"""The metrics registry: named, labelled instruments with snapshots.

The paper's evaluation (Figs. 9-11, Table 2) is entirely about measured
pipeline behaviour.  This module gives those numbers one home:

* **counter / gauge** -- a plain numeric attribute of the component that
  owns it (``self.cvs_applied += n``, reset by ``clear()``).  The
  component names its attributes to the registry once, at construction
  (:meth:`MetricsRegistry.bind`), and the registry reads them by name when
  it takes a snapshot: the hot path pays a plain ``+=`` and nothing else.
  A tally no component owns (one per restart, one per router decision)
  is a :class:`Counter`, bound the same way;
* **Histogram** -- raw samples with percentile summaries, the shape the
  paper uses for latency breakdowns;
* **Series** -- (simulated time, value) points, the Fig. 11 shape.

Instruments are identified by a dotted ``name`` plus optional labels
(``adg.worker.cvs_applied{worker=3}``).  A registry keeps every
declaration distinct: when a second component declares an identical
(name, labels) pair -- e.g. one RecoveryWorker per MIRA apply instance --
the registry disambiguates it with an automatic ``i`` label, in
construction order, instead of silently sharing the count.  Aggregation
across the duplicates is a read-side concern (:meth:`MetricsRegistry.total`).

Components declare through the module-level helpers in :mod:`repro.obs`,
which do nothing while no registry collects.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.obs.render import render_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.lifecycle import RedoLifecycleTracer

#: Label key reserved for the registry's duplicate disambiguation.
AUTO_LABEL = "i"

Labels = tuple[tuple[str, str], ...]

_point_time = itemgetter(0)


def _freeze_labels(labels: dict) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _percentile_of_sorted(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of an already
    sorted sequence."""
    if not ordered:
        raise ValueError("no values")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be within [0, 100]")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


class Instrument:
    """Common identity of every instrument kind."""

    kind = "instrument"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels

    @property
    def key(self) -> tuple[str, Labels]:
        return (self.name, self.labels)

    def describe(self) -> str:
        if not self.labels:
            return self.name
        rendered = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{rendered}}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()!r})"


class Bound(Instrument):
    """A counter or gauge: one named attribute of the component that owns
    it, read when the registry takes a snapshot."""

    __slots__ = ("kind", "owner", "attr")

    def __init__(
        self, name: str, labels: Labels, kind: str, owner, attr: str
    ) -> None:
        super().__init__(name, labels)
        self.kind = kind
        self.owner = owner
        self.attr = attr

    @property
    def value(self) -> float:
        return getattr(self.owner, self.attr)

    def export(self) -> dict:
        return {"value": self.value}


class Counter:
    """A tally no component owns; :meth:`MetricsRegistry.counter` binds
    its ``value``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram(Instrument):
    """Raw samples with the paper's summary statistics on read."""

    kind = "histogram"
    __slots__ = ("samples",)

    def __init__(self, name: str, labels: Labels = ()) -> None:
        super().__init__(name, labels)
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    def stats(self) -> dict:
        """count/sum/min/max/mean/p50/p95/p99 from one sort; zeros when
        empty."""
        if not self.samples:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        ordered = sorted(self.samples)
        total = sum(ordered)
        return {
            "count": len(ordered),
            "sum": total,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": total / len(ordered),
            "p50": _percentile_of_sorted(ordered, 50),
            "p95": _percentile_of_sorted(ordered, 95),
            "p99": _percentile_of_sorted(ordered, 99),
        }

    def export(self) -> dict:
        return self.stats()


class Series(Instrument):
    """(time, value) points, appended in time order; step-interpolated
    reads (Fig. 11 shape)."""

    kind = "series"
    __slots__ = ("points",)

    def __init__(self, name: str, labels: Labels = ()) -> None:
        super().__init__(name, labels)
        self.points: list[tuple[float, float]] = []

    def record(self, t: float, value: float) -> None:
        self.points.append((t, value))

    def value_at(self, t: float) -> float:
        """The value of the last point at or before ``t`` (0 before the
        first point)."""
        i = bisect_right(self.points, t, key=_point_time)
        return self.points[i - 1][1] if i else 0.0

    def export(self) -> dict:
        out: dict = {"count": len(self.points)}
        if self.points:
            out["first"] = list(self.points[0])
            out["last"] = list(self.points[-1])
        return out


class MetricsRegistry:
    """Holds every instrument declared while the registry collects.

    ``tracer`` is the optional redo-lifecycle tracer; components capture
    the registry at construction and consult ``registry.tracer`` on their
    hot paths, so the tracer may be attached after the pipeline is built
    (the deployment does this automatically -- see ``Deployment.build``).
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, Labels], Instrument] = {}
        self.tracer: Optional["RedoLifecycleTracer"] = None

    # -- declaration ----------------------------------------------------
    def _declare(self, cls, name: str, labels: dict, *args) -> Instrument:
        frozen = _freeze_labels(labels)
        if (name, frozen) in self._instruments:
            # a second component declared the same identity: disambiguate
            # deterministically (construction order is simulation order)
            index = 1
            while (name, _freeze_labels({**labels, AUTO_LABEL: index})) \
                    in self._instruments:
                index += 1
            frozen = _freeze_labels({**labels, AUTO_LABEL: index})
        instrument = cls(name, frozen, *args)
        self._instruments[(name, frozen)] = instrument
        return instrument

    def bind(
        self, owner, attrs: dict[str, str], kind: str = "counter", **labels
    ) -> None:
        """Expose ``owner``'s numeric attributes: ``attrs`` maps each
        attribute name to its instrument name, all under ``labels``.  A
        misspelt attribute fails here, not at snapshot time."""
        if kind not in ("counter", "gauge"):
            raise ValueError(f"bind kind must be counter or gauge: {kind!r}")
        for attr, name in attrs.items():
            getattr(owner, attr)
            self._declare(Bound, name, labels, kind, owner, attr)

    def counter(self, name: str, **labels) -> Counter:
        tally = Counter()
        self.bind(tally, {"value": name}, **labels)
        return tally

    def histogram(self, name: str, **labels) -> Histogram:
        return self._declare(Histogram, name, labels)  # type: ignore

    def series(self, name: str, **labels) -> Series:
        return self._declare(Series, name, labels)  # type: ignore

    # -- reads (the snapshot is the read surface) -----------------------
    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> "MetricsSnapshot":
        return MetricsSnapshot.capture(self)


class MetricsSnapshot:
    """A point-in-time, deterministic export of a registry.

    Entries are sorted by (name, labels), values derive only from the
    simulation, and the dict/JSON shapes are stable -- so snapshots can be
    embedded in the chaos harness's byte-stable reports and diffed across
    benchmark runs.
    """

    def __init__(self, entries: list[dict]) -> None:
        self.entries = entries

    @classmethod
    def capture(cls, registry: MetricsRegistry) -> "MetricsSnapshot":
        entries = [
            {
                "name": inst.name,
                "labels": dict(inst.labels),
                "kind": inst.kind,
                **inst.export(),
            }
            for inst in sorted(registry, key=lambda i: i.key)
        ]
        return cls(entries)

    # -- reads ----------------------------------------------------------
    def get(self, name: str, **labels) -> Optional[dict]:
        frozen = _freeze_labels(labels)
        for entry in self.entries:
            if entry["name"] == name \
                    and _freeze_labels(entry["labels"]) == frozen:
                return entry
        return None

    def find(self, name: str) -> list[dict]:
        return [e for e in self.entries if e["name"] == name]

    def total(self, name: str) -> float:
        return sum(
            e["value"] for e in self.find(name)
            if e["kind"] in ("counter", "gauge")
        )

    def __len__(self) -> int:
        return len(self.entries)

    # -- exports --------------------------------------------------------
    def as_dict(self) -> dict:
        return {"instruments": self.entries}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """Pretty-printed snapshot: one section per instrument kind."""

        def label_str(entry: dict) -> str:
            labels = _freeze_labels(entry["labels"])
            return Instrument(entry["name"], labels).describe()

        sections = []
        values = [
            e for e in self.entries if e["kind"] in ("counter", "gauge")
        ]
        if values:
            sections.append(render_table(
                ["instrument", "kind", "value"],
                [[label_str(e), e["kind"], e["value"]] for e in values],
                title="counters / gauges",
            ))
        hists = [e for e in self.entries if e["kind"] == "histogram"]
        if hists:
            sections.append(render_table(
                ["histogram", "n", "mean", "p50", "p95", "max"],
                [
                    [
                        label_str(e), e["count"], e["mean"],
                        e["p50"], e["p95"], e["max"],
                    ]
                    for e in hists
                ],
                title="histograms",
            ))
        series = [e for e in self.entries if e["kind"] == "series"]
        if series:
            rows = []
            for e in series:
                first = e.get("first", ["-", "-"])
                last = e.get("last", ["-", "-"])
                rows.append(
                    [label_str(e), e["count"], first[1], last[1]]
                )
            sections.append(render_table(
                ["series", "points", "first", "last"],
                rows,
                title="series",
            ))
        if not sections:
            return "(empty snapshot)"
        return "\n\n".join(sections)
