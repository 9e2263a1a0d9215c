"""Tests for the synthetic OLTAP workload kit."""

import pytest

from repro import obs
from repro.db import Deployment, InMemoryService
from repro.workload import OLTAPConfig, OLTAPWorkload, wide_table_def

from tests.db.conftest import small_config


def tiny_config(**overrides):
    config = OLTAPConfig(
        n_rows=300,
        n_number_columns=5,
        n_varchar_columns=5,
        rows_per_block=32,
        target_ops_per_sec=300.0,
        duration=1.0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestWideTableDef:
    def test_101_columns_by_default(self):
        table_def = wide_table_def(OLTAPConfig())
        assert len(table_def.columns) == 101
        assert table_def.columns[0].name == "id"
        assert table_def.indexes == ("id",)

    def test_mix_validation(self):
        config = OLTAPConfig(pct_update=0.9, pct_insert=0.2)
        with pytest.raises(ValueError):
            config.validate()


class TestWorkloadRun:
    def run_workload(self, config, service=InMemoryService.BOTH,
                     scan_target="standby"):
        deployment = Deployment.build(config=small_config())
        workload = OLTAPWorkload(deployment, config)
        workload.setup(service=service)
        workload.start(scan_target=scan_target)
        workload.run()
        workload.stop()
        deployment.catch_up()
        return deployment, workload

    def test_update_only_mix(self):
        deployment, workload = self.run_workload(tiny_config())
        driver = workload.dml_driver
        assert driver.inserts == 0
        assert driver.updates > 0
        assert driver.fetches > 0
        # mix roughly honoured: ~70% updates of DML ops
        dml_ops = driver.updates + driver.conflicts + driver.fetches
        assert driver.updates / dml_ops > 0.5

    def test_insert_workload_grows_table(self):
        config = tiny_config(pct_update=0.40, pct_insert=0.25)
        deployment, workload = self.run_workload(config)
        assert workload.dml_driver.inserts > 0
        result = deployment.standby.query(config.table_name)
        assert len(result.rows) == config.n_rows + workload.dml_driver.inserts

    def test_misspelt_scan_target_raises(self):
        deployment = Deployment.build(config=small_config())
        workload = OLTAPWorkload(deployment, tiny_config())
        with pytest.raises(ValueError, match="standy"):
            workload.start(scan_target="standy")

    def test_query_driver_records_latencies(self):
        deployment, workload = self.run_workload(tiny_config())
        assert len(workload.query_driver.q1) + len(workload.query_driver.q2) > 0

    def test_consistency_after_workload(self):
        """After any workload run, the standby equals the primary's CR."""
        config = tiny_config(pct_update=0.5, pct_insert=0.2)
        deployment, workload = self.run_workload(config)
        snapshot = deployment.standby.query_scn.value
        table = deployment.primary.catalog.table(config.table_name)
        expected = sorted(
            values for __, values in table.full_scan(
                snapshot, deployment.primary.txn_table
            )
        )
        got = sorted(deployment.standby.query(config.table_name).rows)
        assert got == expected

    def test_throughput_pacing(self):
        config = tiny_config(duration=2.0, target_ops_per_sec=200.0)
        deployment, workload = self.run_workload(config)
        issued = workload.dml_driver.ops_issued
        # ~duration * rate * (1 - scan fraction), within slack
        expected = config.duration * config.target_ops_per_sec
        assert 0.5 * expected <= issued <= 1.5 * expected

    def test_observing_a_run_does_not_change_it(self):
        """The registry and the lifecycle tracer it arms are passive: the
        same seeded run, collected or not, publishes the same QuerySCNs
        at the same simulated times and ends at the same instant.  An
        observer that stepped on the scheduler would take jitter draws
        from its one seeded stream and move every actor after it."""
        config = dict(pct_update=0.5, pct_insert=0.2)
        plain, __ = self.run_workload(tiny_config(**config))
        with obs.collecting(obs.MetricsRegistry()):
            watched, __ = self.run_workload(tiny_config(**config))
        assert watched.obs.tracer.completed_total.value > 0
        assert watched.sched.now == plain.sched.now
        assert (
            watched.standby.query_scn.history
            == plain.standby.query_scn.history
        )

    def test_no_imcs_baseline(self):
        deployment, workload = self.run_workload(tiny_config(), service=None)
        result = deployment.standby.query(workload.config.table_name)
        assert result.stats.imcs_rows == 0
        assert len(result.rows) >= workload.config.n_rows - 50
