"""Every config rejects values that used to misbehave silently, and
removed settings and classes are refused rather than ignored."""

from __future__ import annotations

import pytest

from repro.common.config import (
    ApplyConfig,
    IMCSConfig,
    RACConfig,
    RestartConfig,
    RowStoreConfig,
    SystemConfig,
)
from repro.db import Deployment
from repro.fleet import FleetRouter
from repro.query import QueryWorkerPool
from repro.restart import CheckpointStore
from repro.sim import Scheduler


def rejects(field: str, value, config=IMCSConfig) -> None:
    with pytest.raises(ValueError, match=f"{config.__name__}.{field}"):
        config(**{field: value})


def test_defaults_and_boundary_values_are_accepted():
    IMCSConfig()
    IMCSConfig(
        imcu_target_rows=1, population_workers=1,
        repopulate_invalid_fraction=1.0, repopulate_min_interval=0.0,
        populate_cost_per_row=0.0,
    )


def test_imcu_target_rows_must_be_positive():
    # 0 used to become "one block per IMCU" without a word
    rejects("imcu_target_rows", 0)


def test_repopulate_invalid_fraction_is_in_half_open_unit_interval():
    # <= 0 used to repopulate every unit on every sweep
    rejects("repopulate_invalid_fraction", 0.0)
    rejects("repopulate_invalid_fraction", -0.25)
    rejects("repopulate_invalid_fraction", 1.5)


def test_population_workers_must_be_positive():
    # 0 used to mean "never populate"
    rejects("population_workers", 0)


def test_repopulate_min_interval_is_non_negative():
    rejects("repopulate_min_interval", -0.1)


def test_populate_cost_per_row_is_non_negative():
    rejects("populate_cost_per_row", -1e-6)


def test_apply_defaults_and_boundary_values_are_accepted():
    ApplyConfig()
    ApplyConfig(
        n_workers=1, worker_batch=1, cooperative_flush_batch=1,
        coordinator_flush_batch=1, coordinator_interval=0.0,
        apply_cost_per_cv=0.0,
    )


def test_apply_n_workers_must_be_positive():
    # 0 used to fail late, inside the apply distributor
    rejects("n_workers", 0, ApplyConfig)


def test_apply_worker_batch_must_be_positive():
    # 0 used to build a standby that never applied a change vector
    rejects("worker_batch", 0, ApplyConfig)


def test_apply_cooperative_flush_batch_must_be_positive():
    rejects("cooperative_flush_batch", 0, ApplyConfig)


def test_apply_coordinator_flush_batch_must_be_positive():
    rejects("coordinator_flush_batch", 0, ApplyConfig)


def test_apply_coordinator_interval_is_non_negative():
    rejects("coordinator_interval", -0.01, ApplyConfig)


def test_apply_cost_per_cv_is_non_negative():
    rejects("apply_cost_per_cv", -1e-6, ApplyConfig)


def test_other_configs_accept_defaults_and_boundary_values():
    RowStoreConfig(rows_per_block=1, undo_retention_versions=1)
    RACConfig(
        primary_instances=1, interconnect_latency=0.0,
        invalidation_batch_size=1,
    )
    RestartConfig(
        checkpoint_interval=0.0, restore_cost_per_row=0.0,
        remine_cost_per_cv=0.0,
    )
    SystemConfig(ship_latency=0.0)


def test_rows_per_block_must_be_positive():
    # 0 used to raise ZeroDivisionError, and only inside RAC's row routing
    rejects("rows_per_block", 0, RowStoreConfig)


def test_undo_retention_versions_must_be_positive():
    rejects("undo_retention_versions", 0, RowStoreConfig)


def test_primary_instances_must_be_positive():
    rejects("primary_instances", 0, RACConfig)


def test_interconnect_latency_is_non_negative():
    # a negative latency used to be clamped to "now" by the scheduler
    rejects("interconnect_latency", -0.001, RACConfig)


def test_invalidation_batch_size_must_be_positive():
    # 0 used to send every invalidation group on its own
    rejects("invalidation_batch_size", 0, RACConfig)


def test_checkpoint_interval_is_non_negative():
    rejects("checkpoint_interval", -0.1, RestartConfig)


def test_restore_cost_per_row_is_non_negative():
    rejects("restore_cost_per_row", -1e-7, RestartConfig)


def test_remine_cost_per_cv_is_non_negative():
    rejects("remine_cost_per_cv", -1e-7, RestartConfig)


def test_ship_latency_is_non_negative():
    # a negative latency used to be clamped to "now" by the scheduler
    rejects("ship_latency", -0.002, SystemConfig)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SystemConfig(advance=None),
        lambda: QueryWorkerPool(Scheduler(), parallel_backend="sim"),
        lambda: Deployment.build().start_query_service(
            parallel_backend="sim"
        ),
        lambda: Deployment.build().start_query_service(enable_cache=True),
        lambda: Deployment.build().start_query_service(cache_capacity=8),
        lambda: Deployment.build().enable_inmemory("T", on_primary=True),
        lambda: FleetRouter(Deployment.build(), policy="round_robin"),
        lambda: Deployment.build().standby.attach_actors(
            Scheduler(), name_prefix="standby"
        ),
        lambda: ApplyConfig(routing="dependency"),
        lambda: RACConfig(standby_instances=2),
        lambda: RestartConfig(keep_versions=2),
        lambda: CheckpointStore(keep_versions=2),
        lambda: IMCSConfig(pool_size_bytes=0),
        lambda: Deployment.build().primary.enable_inmemory("T", priority=1),
    ],
    ids=["SystemConfig.advance", "QueryWorkerPool", "start_query_service",
         "start_query_service.enable_cache",
         "start_query_service.cache_capacity",
         "enable_inmemory.on_primary", "FleetRouter.policy",
         "attach_actors.name_prefix", "ApplyConfig.routing",
         "RACConfig.standby_instances", "RestartConfig.keep_versions",
         "CheckpointStore.keep_versions", "IMCSConfig.pool_size_bytes",
         "enable_inmemory.priority"],
)
def test_removed_settings_fail_loudly(call):
    # one advancement protocol, one scan backend, one deployment topology,
    # one session routing policy, one apply routing, no result cache, and
    # a RAC standby's size is add_standby_cluster's argument, a
    # checkpoint store keeps one checkpoint per object, the IMCS has no
    # pool budget and population runs first in, first out: nothing left
    # to select
    with pytest.raises(
        TypeError,
        match="advance|parallel_backend|enable_cache|cache_capacity"
        "|on_primary|policy|name_prefix|routing|standby_instances"
        "|keep_versions|pool_size_bytes|priority",
    ):
        call()


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.fleet", "FleetDeployment"),
        ("repro.db", "SessionPool"),
        ("repro.redo", "FanOutLogShipper"),
        ("repro.query", "ResultCache"),
        ("repro.imcs", "ExternalTable"),
        ("repro.rac", "MIRAStandbyCluster"),
        ("repro.rac", "StandbySatellite"),
        ("repro.restart", "rebuild_imcu"),
    ],
)
def test_removed_classes_fail_to_import(module, name):
    # the N-member Deployment, the router and the N-receiver LogShipper
    # replaced the first three; the result cache and In-Memory External
    # Tables left with nothing in their place; a RAC standby, SIRA or
    # MIRA, is a member with peer instances; a checkpoint holds the IMCU
    # itself, so there is nothing to rebuild; no alias is left behind
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}")
