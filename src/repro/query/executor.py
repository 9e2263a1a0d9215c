"""Morsel-parallel scan execution.

A scan is planned into :class:`~repro.imcs.scan.ScanMorsel`\\ s (one per
usable IMCU plus chunks of row-format blocks) and submitted to a
:class:`QueryWorkerPool`.  Each :class:`QueryWorker` is a scheduler actor:
it dequeues one morsel per step, runs it, and charges the morsel's
simulated scan cost as its step cost -- so with N workers the simulated
elapsed time of a query approaches 1/N of the serial scan, which is
exactly what ``bench_query_service`` measures.

Partials are merged **in plan order** (:func:`merge_partials`), so a
morsel-parallel result is bit-identical to the serial
``ScanEngine.scan`` at the same snapshot, regardless of which worker
finished first.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro import obs
from repro.chaos import sites
from repro.imcs.scan import ScanMorsel, ScanResult, merge_partials
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler, wake

#: Floor cost of dispatching one morsel (queue pop + merge bookkeeping).
MORSEL_DISPATCH_COST = 1e-6


class PendingQuery:
    """A submitted scan: fills with partials until every morsel ran."""

    __slots__ = (
        "morsels", "partials", "submit_time", "complete_time",
        "result", "_remaining",
    )

    def __init__(self, morsels: list[ScanMorsel], submit_time: float) -> None:
        self.morsels = morsels
        self.partials: list[Optional[ScanResult]] = [None] * len(morsels)
        self.submit_time = submit_time
        self.complete_time: Optional[float] = None
        self.result: Optional[ScanResult] = None
        self._remaining = len(morsels)
        if not morsels:  # empty table/partition list: complete at submit
            self._finish(submit_time)

    @property
    def done(self) -> bool:
        return self.result is not None

    def _set_partial(self, index: int, partial: ScanResult, now: float) -> None:
        assert self.partials[index] is None
        self.partials[index] = partial
        self._remaining -= 1
        if self._remaining == 0:
            self._finish(now)

    def _finish(self, now: float) -> None:
        self.result = merge_partials([p for p in self.partials if p is not None])
        self.complete_time = now

    @property
    def elapsed(self) -> float:
        """Simulated submit-to-complete time (the query's response time)."""
        assert self.complete_time is not None
        return self.complete_time - self.submit_time


class QueryWorker(Actor):
    """Runs morsels from the pool's shared queue, one per step."""

    def __init__(
        self,
        pool: "QueryWorkerPool",
        name: str,
        node: Optional[CpuNode] = None,
    ) -> None:
        self.pool = pool
        self.name = name
        self.node = node
        self.morsels_run = 0

    def step(self, sched: Scheduler) -> Optional[float]:
        item = self.pool._take()
        if item is None:
            self.park = True  # until the next submit wakes it
            return None
        pending, index = item
        chaos = self.pool._chaos
        if chaos.injectors is not None:
            decision = chaos.consult(
                "morsel", worker=self.name,
                kind=pending.morsels[index].kind,
            )
            if decision.action is sites.Action.STALL:
                self.pool._requeue(item)
                return MORSEL_DISPATCH_COST
            if decision.action is sites.Action.DELAY:
                self.pool._requeue(item)
                return decision.delay
        partial = pending.morsels[index].run()
        pending._set_partial(index, partial, sched.now)
        self.morsels_run += 1
        self.pool._on_morsel_done(pending)
        return MORSEL_DISPATCH_COST + partial.stats.cost_seconds


class QueryWorkerPool:
    """A fixed set of query workers draining one shared morsel queue:
    scheduler-actor workers on the virtual clock -- deterministic,
    chaos-injectable, modelling multicore speedup in simulated cost."""

    def __init__(
        self,
        sched: Scheduler,
        n_workers: int = 4,
        node: Optional[CpuNode] = None,
        name: str = "query",
    ) -> None:
        if n_workers < 1:
            raise ValueError("query pool needs at least one worker")
        self.sched = sched
        self._queue: deque[tuple[PendingQuery, int]] = deque()
        self.queries_submitted = 0
        self.morsels_dispatched = 0
        obs.bind(self, {
            "queries_submitted": "query.pool.queries",
            "morsels_dispatched": "query.pool.morsels",
        })
        obs.bind(self, {"queue_depth": "query.pool.queue_depth"}, "gauge")
        self._query_seconds = obs.histogram("query.pool.query_seconds")
        self._chaos = sites.declare("query.pool", owner=self)
        self.workers = [
            QueryWorker(self, f"{name}-worker-{i}", node=node)
            for i in range(n_workers)
        ]
        for worker in self.workers:
            sched.add_actor(worker)

    # ------------------------------------------------------------------
    def submit(self, morsels: list[ScanMorsel]) -> PendingQuery:
        """Enqueue a planned scan; workers are woken immediately."""
        pending = PendingQuery(morsels, self.sched.now)
        self.queries_submitted += 1
        if morsels:
            for index in range(len(morsels)):
                self._queue.append((pending, index))
            wake(self.workers)
        else:
            self._query_seconds.observe(0.0)
        return pending

    def shutdown(self) -> None:
        for worker in self.workers:
            self.sched.remove_actor(worker)

    # -- worker side ----------------------------------------------------
    def _take(self) -> Optional[tuple[PendingQuery, int]]:
        if not self._queue:
            return None
        item = self._queue.popleft()
        self.morsels_dispatched += 1
        return item

    def _requeue(self, item: tuple[PendingQuery, int]) -> None:
        self._queue.appendleft(item)

    def _on_morsel_done(self, pending: PendingQuery) -> None:
        if pending.done:
            self._query_seconds.observe(pending.elapsed)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)
