"""Outside-in tracing: spans recorded around the calls *into* each layer.

Nothing under ``src/`` is edited.  A traced repeat replaces, on the
instances of one deployment, the public entry points of each layer with
wrappers that record a span -- ``[name, start, end, parent, run_id,
cal_s]`` -- in memory.  A span's name is ``<layer>:<call>`` and the layer
is the module name, so the per-layer table needs no second mapping.

Spans are read on ``time.process_time``, the clock of every other timed
region of the benchmark (calibrate.py says why), and ``Tracer.calibrate``
turns each duration into calibrated seconds with the kernel samples taken
next to it, so a layer's busy time is in the unit of the end-to-end
metrics.  A layer's busy time is its spans' *self* time: duration minus
the part child spans cover (single thread, so children never overlap).

The harness opens the root spans itself (``sim.scheduler:run`` around every
``Deployment.run`` slice, ``workload:query.<kind>`` around every client
query), so the self times of all spans sum to the timed total exactly and
the scheduler's self time *is* the unattributed residue.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.adg.apply import RecoveryWorker
from repro.adg.coordinator import RecoveryCoordinator
from repro.adg.merger import LogMerger
from repro.db.primary import HeartbeatWriter
from repro.imcs.population import PopulationWorker
from repro.redo.shipping import LogShipper
from repro.rowstore.undo_retention import UndoRetentionManager

NAME, START, END, PARENT, RUN_ID, CAL_S = range(6)

#: actor type -> span name of its ``step``
ACTOR_SPANS = (
    (LogShipper, "redo.shipping:shipper.step"),
    (HeartbeatWriter, "db.primary:heartbeat.step"),
    (LogMerger, "adg.merger:merger.step"),
    (RecoveryCoordinator, "adg.coordinator:coordinator.step"),
    (RecoveryWorker, "adg.apply:worker.step"),
    (PopulationWorker, "imcs.population:popworker.step"),
    (UndoRetentionManager, "rowstore:undo_retention.step"),
)


def layer_of(name: str) -> str:
    return name.partition(":")[0]


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False
        self.run_id = 0

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0.0]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.process_time()
        return span

    def calibrate(self, factor_at: Callable[[float], float]) -> None:
        """Fill in every span's calibrated duration; ``factor_at`` is the
        ``Meter.factor_at`` of the phase the spans were recorded in."""
        for span in self.spans:
            span[CAL_S] = (span[END] - span[START]) * factor_at(span[START])

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the harness itself (the roots)."""
        if not self.active:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            span[END] = time.process_time()
            self._stack.pop()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (untimed harness work)."""
        was_active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was_active

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` on the instance with a span-recording
        wrapper around the original callable."""
        fn = getattr(obj, attr)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.process_time()
                self._stack.pop()

        setattr(obj, attr, traced)

    def install(self, deployment) -> None:
        """Wrap the layer entry points of one deployment."""
        for actor in deployment.sched.actors:
            for actor_type, name in ACTOR_SPANS:
                if isinstance(actor, actor_type):
                    self.wrap(actor, "step", name)
        primary, standby = deployment.primary, deployment.standby
        for attr in ("begin", "insert", "update", "commit", "index_fetch"):
            self.wrap(primary, attr, f"db.primary:{attr}")
        # shipments arrive as scheduler events, not actor steps
        self.wrap(standby.receiver, "deliver", "redo.shipping:deliver")
        for worker in standby.workers:
            if worker.batch_sniffer is not None:
                self.wrap(worker, "batch_sniffer", "dbim_adg.mining:sniff_chunk")
            if worker.flush_helper is not None:
                self.wrap(worker, "flush_helper", "dbim_adg.flush:worker_flush")
        protocol = standby.coordinator.advance_protocol
        self.wrap(protocol, "begin_advance", "dbim_adg.flush:begin_advance")
        self.wrap(
            protocol, "coordinator_flush", "dbim_adg.flush:coordinator_flush"
        )
        self.wrap(standby.query_scn, "publish", "adg.coordinator:publish")
        self.wrap(standby, "query", "imcs.scan:query")
        self.wrap(standby, "aggregate", "imcs.scan:aggregate")


def self_times(spans: list[list]) -> list[float]:
    """Per span: calibrated duration minus that of its direct children."""
    result = [span[CAL_S] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            result[span[PARENT]] -= span[CAL_S]
    return result


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """``layer -> {busy_s, calls}``; the ``busy_s`` column sums to the
    total duration of the root spans."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"busy_s": 0.0, "calls": 0}
    )
    for span, self_s in zip(spans, self_times(spans)):
        row = table[layer_of(span[NAME])]
        row["busy_s"] += self_s
        row["calls"] += 1
    return dict(table)


def root_s(spans: list[list]) -> float:
    """Calibrated seconds of the timed regions the spans cover."""
    return sum(s[CAL_S] for s in spans if s[PARENT] < 0)


def durations(spans: list[list], *names: str) -> list[float]:
    """Calibrated durations of the spans with one of the given names."""
    return [s[CAL_S] for s in spans if s[NAME] in names]
