"""QueryService: morsel-parallel, cache-accelerated standby scans.

One service fronts one standby: it plans scans at the currently
published QuerySCN, probes the result cache, and dispatches misses to
the worker pool.  The cache registers as a flush invalidation listener
at construction, so its entries are evicted strictly before any
QuerySCN that invalidated them is published.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.common.scn import SCN
from repro.imcs.scan import Predicate, ScanResult
from repro.query.cache import ResultCache
from repro.query.executor import PendingQuery, QueryWorkerPool
from repro.sim.scheduler import Scheduler


class QueryHandle:
    """One submitted query: resolved immediately on a cache hit,
    otherwise when the worker pool finishes its morsels."""

    __slots__ = ("key", "scn", "cached", "pending", "_result", "submit_time")

    def __init__(
        self,
        key,
        scn: SCN,
        cached: bool,
        submit_time: float,
        pending: Optional[PendingQuery] = None,
        result: Optional[ScanResult] = None,
    ) -> None:
        self.key = key
        self.scn = scn
        self.cached = cached
        self.pending = pending
        self._result = result
        self.submit_time = submit_time

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
    """The standby's query-serving front end."""

    submitted = obs.view("_submitted")

    def __init__(
        self,
        standby,
        sched: Scheduler,
        n_workers: int = 4,
        cache_capacity: int = 256,
        enable_cache: bool = True,
        node=None,
        name: str = "query",
    ) -> None:
        self.standby = standby
        self.sched = sched
        self.pool = QueryWorkerPool(
            sched, n_workers,
            node=node if node is not None else standby.node,
            name=name,
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_capacity) if enable_cache else None
        )
        if self.cache is not None and standby.dbim_enabled:
            standby.flush.add_invalidation_listener(self.cache)
        self._submitted = obs.counter("query.service.submitted")

    # ------------------------------------------------------------------
    @staticmethod
    def _fingerprint(
        predicates: Optional[list[Predicate]],
        columns: Optional[list[str]],
        partitions: Optional[list[str]],
    ):
        return (
            tuple(predicates) if predicates else (),
            tuple(columns) if columns is not None else None,
            tuple(partitions) if partitions is not None else None,
        )

    # ------------------------------------------------------------------
    def submit(
        self,
        table_name: str,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
    ) -> QueryHandle:
        """Plan + dispatch one scan at the published QuerySCN."""
        self._submitted.inc()
        scn = self.standby.query_scn.value
        now = self.sched.now
        key = (scn, table_name, self._fingerprint(
            predicates, columns, partitions
        ))
        if self.cache is not None:
            hit = self.cache.lookup(key)
            if hit is not None:
                return QueryHandle(
                    key, scn, cached=True, submit_time=now, result=hit
                )
        table = self.standby.catalog.table(table_name)
        part_names = (
            partitions if partitions is not None else list(table.partitions)
        )
        object_ids = [table.partition(p).object_id for p in part_names]
        epochs = (
            self.cache.snapshot_epochs(object_ids)
            if self.cache is not None else None
        )
        morsels = self.standby.scan_engine.plan_morsels(
            table, scn, predicates, columns, partitions
        )
        pending = self.pool.submit(morsels)
        if self.cache is not None:
            cache = self.cache

            def store(done: PendingQuery) -> None:
                cache.put(key, object_ids, done.result, epochs)

            if pending.done:  # zero-morsel scan completed at submit
                store(pending)
            else:
                pending.on_complete = store
        return QueryHandle(
            key, scn, cached=False, submit_time=now, pending=pending
        )

    def scan(
        self,
        table_name: str,
        predicates: Optional[list[Predicate]] = None,
        columns: Optional[list[str]] = None,
        partitions: Optional[list[str]] = None,
        max_time: float = 600.0,
    ) -> tuple[ScanResult, bool]:
        """Submit and run the scheduler until the query completes.

        Returns ``(result, served_from_cache)``.  Only for callers that
        *drive* the scheduler (tests, benchmarks); actors inside the
        simulation must use :meth:`submit` and poll the handle.
        """
        handle = self.submit(table_name, predicates, columns, partitions)
        if not handle.done:
            ok = self.sched.run_until_condition(
                lambda: handle.done, max_time=max_time
            )
            if not ok:
                raise TimeoutError("query did not complete in time")
        return handle.result, handle.cached

    def shutdown(self) -> None:
        self.pool.shutdown()
