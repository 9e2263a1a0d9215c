"""The redo-lifecycle tracer: per-stage pipeline latency from instruments.

Stamps tracked redo records through every stage of the DBIM-on-ADG
pipeline using the simulated clock:

    generated -> shipped -> received -> merged -> applied -> mined
              -> chopped -> flushed -> published

``generated``..``mined`` are record-granular (``applied`` and ``mined``
complete when the record's *last* change vector is applied / sniffed, so
the stamps are meaningful under both SIRA and MIRA's filtered apply);
``chopped`` and ``flushed`` are transaction-granular and attach to the
commit record, whose SCN *is* the commitSCN; ``published`` covers every
tracked record at or below a freshly published QuerySCN.

Each stage completion observes the latency since the previous stamped
stage into ``lifecycle.stage.<stage>``; publication also observes the
end-to-end **redo visibility lag** (publish time minus generation time)
into ``lifecycle.visibility_lag`` and appends it to the
``lifecycle.visibility_lag_series`` series.  Two SCN-valued series --
``lifecycle.scn.generated`` (per thread) and ``lifecycle.scn.published``
-- reproduce the Fig. 11 lag plot from instruments alone; see
:meth:`RedoLifecycleTracer.worst_scn_gap`.

Pipeline components consult the tracer through the registry they captured
at construction (``registry.tracer``), so arming it after the deployment
is built works; unarmed, the hot paths pay one attribute check.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.obs.registry import MetricsRegistry

#: Stage order.  A stage's latency histogram measures the time since the
#: latest *earlier* stage the record actually stamped, so records that
#: skip stages (no DBIM mining, non-commit records never chopped) still
#: produce well-defined deltas.
STAGES = (
    "generated",
    "shipped",
    "received",
    "merged",
    "applied",
    "mined",
    "chopped",
    "flushed",
    "published",
)

_STAGE_INDEX = {stage: i for i, stage in enumerate(STAGES)}


class _Tracked:
    __slots__ = ("stamps", "cvs_to_apply", "cvs_to_mine")

    def __init__(self, n_cvs: int) -> None:
        self.stamps: dict[str, float] = {}
        self.cvs_to_apply = n_cvs
        self.cvs_to_mine = n_cvs


class RedoLifecycleTracer:
    """Stamps every redo record through the pipeline stages.

    ``clock`` is anything with a ``now`` attribute in simulated seconds
    (the scheduler, or the sim clock itself).  The tracer is passive: it
    only records what the pipeline tells it, and never adds an actor or
    draws from the scheduler's jitter stream, so arming it leaves a
    seeded run unchanged.
    """

    def __init__(
        self, clock, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self._clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._stage_hist = {
            stage: reg.histogram(f"lifecycle.stage.{stage}")
            for stage in STAGES[1:]
        }
        self.visibility_lag = reg.histogram("lifecycle.visibility_lag")
        self.lag_series = reg.series("lifecycle.visibility_lag_series")
        self.published_series = reg.series("lifecycle.scn.published")
        self.tracked_total = reg.counter("lifecycle.tracked")
        self.completed_total = reg.counter("lifecycle.completed")
        self._generated_series: dict[int, object] = {}
        self._tracked: dict[int, _Tracked] = {}
        #: Min-heap of tracked SCNs awaiting QuerySCN coverage.
        self._awaiting_publish: list[int] = []
        self._last_published: float = 0.0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._clock.now

    @property
    def in_flight(self) -> int:
        """Tracked records not yet covered by a published QuerySCN."""
        return len(self._tracked)

    def _stamp(self, entry: _Tracked, stage: str, t: float) -> None:
        if stage in entry.stamps:
            return
        previous = None
        for earlier in STAGES[: _STAGE_INDEX[stage]]:
            if earlier in entry.stamps:
                previous = entry.stamps[earlier]
        entry.stamps[stage] = t
        if previous is not None:
            self._stage_hist[stage].observe(t - previous)

    def _track(self, scn: int, n_cvs: int) -> Optional[_Tracked]:
        entry = self._tracked.get(scn)
        if entry is None:
            entry = _Tracked(n_cvs)
            self._tracked[scn] = entry
            heapq.heappush(self._awaiting_publish, scn)
            self.tracked_total.inc()
        return entry

    # ------------------------------------------------------------------
    # stage hooks (called by the pipeline components)
    # ------------------------------------------------------------------
    def record_generated(self, thread: int, scn: int, n_cvs: int) -> None:
        """A record of ``n_cvs`` change vectors was appended to a primary
        redo thread's log."""
        series = self._generated_series.get(thread)
        if series is None:
            series = self.registry.series(
                "lifecycle.scn.generated", thread=thread
            )
            self._generated_series[thread] = series
        series.record(self.now, scn)
        entry = self._track(scn, n_cvs)
        if entry is not None:
            self._stamp(entry, "generated", self.now)

    def record_shipped(self, scn: int, n_cvs: int) -> None:
        entry = self._track(scn, n_cvs)
        if entry is not None:
            self._stamp(entry, "shipped", self.now)

    def record_received(self, scn: int, n_cvs: int) -> None:
        entry = self._track(scn, n_cvs)
        if entry is not None:
            self._stamp(entry, "received", self.now)

    def record_merged(self, scn: int) -> None:
        entry = self._tracked.get(scn)
        if entry is not None:
            self._stamp(entry, "merged", self.now)

    def record_applied(self, scn: int) -> None:
        """One CV of the record at ``scn`` was applied; the stage stamps
        when the record's last CV lands (cluster-wide exactly-once under
        MIRA's filtered distribution)."""
        entry = self._tracked.get(scn)
        if entry is None:
            return
        entry.cvs_to_apply -= 1
        if entry.cvs_to_apply <= 0:
            self._stamp(entry, "applied", self.now)

    def record_mined(self, scn: int) -> None:
        """One CV of the record at ``scn`` was successfully sniffed."""
        entry = self._tracked.get(scn)
        if entry is None:
            return
        entry.cvs_to_mine -= 1
        if entry.cvs_to_mine <= 0:
            self._stamp(entry, "mined", self.now)

    def record_chopped(self, commit_scn: int) -> None:
        """A commit-table node entered a worklink."""
        entry = self._tracked.get(commit_scn)
        if entry is not None:
            self._stamp(entry, "chopped", self.now)

    def record_flushed(self, commit_scn: int) -> None:
        """A worklink node's invalidation groups were routed to SMUs."""
        entry = self._tracked.get(commit_scn)
        if entry is not None:
            self._stamp(entry, "flushed", self.now)

    def record_published(self, scn: int) -> None:
        """A QuerySCN publication: covers every tracked record <= scn."""
        now = self.now
        if scn > self._last_published:
            self.published_series.record(now, scn)
            self._last_published = scn
        while self._awaiting_publish and self._awaiting_publish[0] <= scn:
            covered = heapq.heappop(self._awaiting_publish)
            entry = self._tracked.pop(covered, None)
            if entry is None:
                continue
            self._stamp(entry, "published", now)
            start = None
            for stage in STAGES:
                if stage in entry.stamps:
                    start = entry.stamps[stage]
                    break
            if start is not None:
                lag = now - start
                self.visibility_lag.observe(lag)
                self.lag_series.record(now, lag)
            self.completed_total.inc()

    # ------------------------------------------------------------------
    # Fig. 11 reproduction from instruments alone
    # ------------------------------------------------------------------
    def generated_series(self, thread: int):
        """The ``lifecycle.scn.generated`` series for one redo thread."""
        return self._generated_series.get(thread)

    def worst_scn_gap(self, after: float = 0.0) -> float:
        """Peak generated-vs-published gap over every generation sample
        at or after ``after`` (warm-up exclusion, as in the Fig. 11
        bench).  The published series is the max over every publisher,
        so with several standbys (or MIRA instances) the gap is measured
        against the first publication of each SCN."""
        worst = 0.0
        for series in self._generated_series.values():
            for t, generated in series.points:
                if t < after:
                    continue
                gap = generated - self.published_series.value_at(t)
                if gap > worst:
                    worst = gap
        return worst

    def stage_summary(self) -> dict[str, dict]:
        """Per-stage histogram statistics, in stage order."""
        return {
            stage: self._stage_hist[stage].stats() for stage in STAGES[1:]
        }
