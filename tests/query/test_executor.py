"""Morsel-parallel execution through the query service: correctness
(identical to the serial scan) and the parallelism payoff (simulated
elapsed scales with workers)."""

from __future__ import annotations

import pytest

from repro.db import InMemoryService
from repro.imcs import Predicate
from repro.query import QueryService

from tests.db.conftest import load, simple_table_def, small_config
from repro.db import Deployment


@pytest.fixture
def big_deployment():
    deployment = Deployment.build(config=small_config())
    deployment.create_table(simple_table_def())
    rowids, __ = load(deployment, n=400)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    deployment.catch_up()
    return deployment, rowids


def run_parallel(deployment, n_workers, predicates=None, columns=None):
    service = QueryService(deployment.member(), deployment.sched, n_workers)
    try:
        pending = service.submit("T", predicates, columns)
        ok = deployment.sched.run_until_condition(
            lambda: pending.done, max_time=120.0
        )
        assert ok, "parallel scan never completed"
    finally:
        service.shutdown()
    return pending, len(pending.morsels)


class TestCorrectness:
    def test_parallel_equals_serial(self, big_deployment):
        deployment, __ = big_deployment
        serial = deployment.standby.query("T")
        pending, n_morsels = run_parallel(deployment, n_workers=4)
        assert n_morsels > 1
        assert pending.scn == deployment.standby.query_scn.value
        assert pending.result.rows == serial.rows
        assert pending.result.stats == serial.stats

    def test_parallel_equals_serial_with_predicates_and_projection(
        self, big_deployment
    ):
        deployment, __ = big_deployment
        predicates = [Predicate.lt("n1", 100.0)]
        columns = ["id", "c1"]
        serial = deployment.standby.query("T", predicates, columns)
        pending, __ = run_parallel(
            deployment, n_workers=3, predicates=predicates, columns=columns
        )
        assert pending.result.rows == serial.rows
        assert pending.result.stats == serial.stats

    def test_empty_morsel_list_completes_at_submit(self, big_deployment):
        deployment, __ = big_deployment
        service = QueryService(deployment.member(), deployment.sched, 2)
        try:
            pending = service.submit("T", partitions=[])
            assert pending.morsels == []
            assert pending.done
            assert pending.result.rows == []
            assert pending.elapsed == 0.0
        finally:
            service.shutdown()


class TestParallelism:
    def test_four_workers_at_least_twice_as_fast(self, big_deployment):
        deployment, __ = big_deployment
        serial_pending, n_morsels = run_parallel(deployment, n_workers=1)
        assert n_morsels >= 4, "need enough morsels to parallelise"
        parallel_pending, __ = run_parallel(deployment, n_workers=4)
        assert parallel_pending.result.rows == serial_pending.result.rows
        speedup = serial_pending.elapsed / parallel_pending.elapsed
        assert speedup >= 2.0, f"speedup only {speedup:.2f}x"

    def test_pool_rejects_zero_workers(self, big_deployment):
        deployment, __ = big_deployment
        with pytest.raises(ValueError):
            QueryService(deployment.member(), deployment.sched, 0)

    def test_shutdown_removes_workers(self, big_deployment):
        deployment, __ = big_deployment
        service = QueryService(deployment.member(), deployment.sched, 2)
        assert all(w in deployment.sched.actors for w in service.workers)
        service.shutdown()
        assert all(w not in deployment.sched.actors for w in service.workers)
