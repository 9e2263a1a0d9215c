"""QueryService: morsel-parallel standby scans.

One service fronts one member: it plans scans on the member's scan
engine (every instance's IMCS) at the member's published QuerySCN and
dispatches their morsels to the worker pool.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.common.scn import SCN
from repro.imcs.scan import Predicate, ScanResult
from repro.query.executor import PendingQuery, QueryWorkerPool
from repro.sim.scheduler import Scheduler


class QueryHandle:
    """One submitted query: resolved when the worker pool finishes its
    morsels (or at once, when it was answered synchronously)."""

    __slots__ = ("scn", "pending", "_result")

    def __init__(
        self,
        scn: SCN,
        pending: Optional[PendingQuery] = None,
        result: Optional[ScanResult] = None,
    ) -> None:
        self.scn = scn
        self.pending = pending
        self._result = result

    @property
    def done(self) -> bool:
        return self._result is not None or (
            self.pending is not None and self.pending.done
        )

    @property
    def result(self) -> ScanResult:
        if self._result is not None:
            return self._result
        assert self.pending is not None and self.pending.done
        return self.pending.result


class QueryService:
    """A standby member's query-serving front end."""

    def __init__(
        self, member, sched: Scheduler, n_workers: int = 4,
        name: str = "query",
    ) -> None:
        self.member = member
        self.sched = sched
        self.pool = QueryWorkerPool(
            sched, n_workers, node=member.node, name=name
        )
        self.submitted = 0
        obs.bind(self, {"submitted": "query.service.submitted"})

    # ------------------------------------------------------------------
    def submit(
        self,
        table_name: str,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
    ) -> QueryHandle:
        """Plan + dispatch one scan at the member's published QuerySCN."""
        self.submitted += 1
        scn = self.member.published_scn
        table = self.member.catalog.table(table_name)
        morsels = self.member.scan_engine.plan_morsels(
            table, scn, predicates, columns, partitions
        )
        return QueryHandle(scn, pending=self.pool.submit(morsels))

    def scan(
        self,
        table_name: str,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
        max_time: float = 600.0,
    ) -> ScanResult:
        """Submit and run the scheduler until the query completes.

        Only for callers that *drive* the scheduler (tests, benchmarks);
        actors inside the simulation must use :meth:`submit` and poll the
        handle.
        """
        handle = self.submit(table_name, predicates, columns, partitions)
        if not handle.done:
            ok = self.sched.run_until_condition(
                lambda: handle.done, max_time=max_time
            )
            if not ok:
                raise TimeoutError("query did not complete in time")
        return handle.result

    def shutdown(self) -> None:
        self.pool.shutdown()
