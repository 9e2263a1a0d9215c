"""QueryService: one member's morsel-parallel standby scans.

``submit`` plans a scan on the member's scan engine (every instance's
IMCS) at its published QuerySCN into morsels -- one per usable IMCU plus
chunks of row-format blocks -- for the service's :class:`QueryWorker`
actors on the member's node.  A worker runs one morsel per step and
charges its simulated scan cost as the step cost, so N workers approach
1/N of the serial elapsed time (``bench_query_service``).  The
:class:`PendingQuery` returned is the handle; its partials merge in plan
order, bit-identical to the serial scan whichever worker finished first.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro import obs
from repro.chaos import sites
from repro.common.scn import SCN
from repro.imcs.scan import Predicate, ScanMorsel, ScanResult, merge_partials
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler, wake

#: Floor cost of dispatching one morsel (queue pop + merge bookkeeping).
MORSEL_DISPATCH_COST = 1e-6


class PendingQuery:
    """One submitted scan, planned at QuerySCN ``scn``: fills with
    partials until every morsel ran."""

    __slots__ = (
        "scn", "morsels", "partials", "submit_time", "complete_time",
        "result", "_remaining",
    )

    def __init__(
        self, scn: SCN, morsels: list[ScanMorsel], submit_time: float
    ) -> None:
        self.scn = scn
        self.morsels = morsels
        self.partials: list[Optional[ScanResult]] = [None] * len(morsels)
        self.submit_time = submit_time
        self.complete_time: Optional[float] = None
        self.result: Optional[ScanResult] = None
        self._remaining = len(morsels)
        if not morsels:  # empty table/partition list: complete at submit
            self._finish(submit_time)

    @classmethod
    def answered(
        cls, scn: SCN, result: ScanResult, now: float
    ) -> "PendingQuery":
        """A query its database answered serially, at submit."""
        pending = cls(scn, [], now)
        pending.result = result
        return pending

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
        self.result = merge_partials(self.partials)
        self.complete_time = now

    @property
    def elapsed(self) -> float:
        """Simulated submit-to-complete time (the query's response time)."""
        assert self.complete_time is not None
        return self.complete_time - self.submit_time


class QueryWorker(Actor):
    """Runs morsels from its service's shared queue, one per step."""

    def __init__(
        self, service: "QueryService", name: str, node: Optional[CpuNode]
    ) -> None:
        self.service = service
        self.name = name
        self.node = node

    def step(self, sched: Scheduler) -> Optional[float]:
        service = self.service
        queue = service._queue
        if not queue:
            self.park = True  # until the next submit wakes it
            return None
        pending, index = item = queue.popleft()
        service.morsels_dispatched += 1
        chaos = service._chaos
        if chaos.injectors is not None:
            decision = chaos.consult(
                "morsel", worker=self.name,
                kind=pending.morsels[index].kind,
            )
            if decision.action is sites.Action.STALL:
                queue.appendleft(item)
                return MORSEL_DISPATCH_COST
            if decision.action is sites.Action.DELAY:
                queue.appendleft(item)
                return decision.delay
        partial = pending.morsels[index].run()
        pending._set_partial(index, partial, sched.now)
        if pending.done:
            service._query_seconds.observe(pending.elapsed)
        return MORSEL_DISPATCH_COST + partial.stats.cost_seconds


class QueryService:
    """A standby member's query endpoint: its workers drain one morsel
    queue on the virtual clock (deterministic, chaos-injectable)."""

    def __init__(self, member, sched: Scheduler, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("query service needs at least one worker")
        self.member = member
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
            QueryWorker(self, f"{member.name}-query-worker-{i}", member.node)
            for i in range(n_workers)
        ]
        for worker in self.workers:
            sched.add_actor(worker)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def submit(
        self,
        table_name: str,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
    ) -> PendingQuery:
        """Plan one scan at the member's published QuerySCN and queue its
        morsels; parked workers wake at once."""
        scn = self.member.published_scn
        table = self.member.catalog.table(table_name)
        morsels = self.member.scan_engine.plan_morsels(
            table, scn, predicates, columns, partitions
        )
        pending = PendingQuery(scn, morsels, self.sched.now)
        self.queries_submitted += 1
        if morsels:
            self._queue.extend((pending, i) for i in range(len(morsels)))
            wake(self.workers)
        else:
            self._query_seconds.observe(0.0)
        return pending

    def scan(
        self,
        table_name: str,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
        max_time: float = 600.0,
    ) -> ScanResult:
        """Submit and run the scheduler until the query completes: for
        callers that drive the scheduler; actors poll :meth:`submit`'s
        pending query."""
        pending = self.submit(table_name, predicates, columns, partitions)
        if not pending.done and not self.sched.run_until_condition(
            lambda: pending.done, max_time=max_time
        ):
            raise TimeoutError("query did not complete in time")
        return pending.result

    def shutdown(self) -> None:
        """Take the workers off the scheduler (the member is gone)."""
        for worker in self.workers:
            self.sched.remove_actor(worker)
