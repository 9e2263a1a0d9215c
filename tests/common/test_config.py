"""IMCSConfig and ApplyConfig reject values that used to misbehave
silently, and removed settings and classes are refused rather than
ignored."""

from __future__ import annotations

import pytest

from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import Deployment
from repro.fleet import FleetRouter
from repro.query import QueryWorkerPool
from repro.sim import Scheduler


def rejects(field: str, value, config=IMCSConfig) -> None:
    with pytest.raises(ValueError, match=f"{config.__name__}.{field}"):
        config(**{field: value})


def test_defaults_and_boundary_values_are_accepted():
    IMCSConfig()
    IMCSConfig(
        imcu_target_rows=1, pool_size_bytes=0, population_workers=1,
        repopulate_invalid_fraction=1.0, repopulate_min_interval=0.0,
        populate_cost_per_row=0.0,
    )


def test_imcu_target_rows_must_be_positive():
    # 0 used to become "one block per IMCU" without a word
    rejects("imcu_target_rows", 0)


def test_pool_size_bytes_is_none_or_non_negative():
    rejects("pool_size_bytes", -1)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: SystemConfig(advance=None),
        lambda: QueryWorkerPool(Scheduler(), parallel_backend="sim"),
        lambda: Deployment.build().start_query_service(
            parallel_backend="sim"
        ),
        lambda: Deployment.build().enable_inmemory("T", on_primary=True),
        lambda: FleetRouter(Deployment.build(), policy="round_robin"),
        lambda: Deployment.build().standby.attach_actors(
            Scheduler(), name_prefix="standby"
        ),
        lambda: ApplyConfig(routing="dependency"),
    ],
    ids=["SystemConfig.advance", "QueryWorkerPool", "start_query_service",
         "enable_inmemory.on_primary", "FleetRouter.policy",
         "attach_actors.name_prefix", "ApplyConfig.routing"],
)
def test_removed_settings_fail_loudly(call):
    # one advancement protocol, one scan backend, one deployment topology,
    # one session routing policy, one apply routing: nothing left to select
    with pytest.raises(
        TypeError,
        match="advance|parallel_backend|on_primary|policy|name_prefix|routing",
    ):
        call()


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.fleet", "FleetDeployment"),
        ("repro.db", "SessionPool"),
        ("repro.redo", "FanOutLogShipper"),
    ],
)
def test_removed_classes_fail_to_import(module, name):
    # the N-member Deployment, the router and the N-receiver LogShipper
    # replaced them; no alias is left behind
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}")
