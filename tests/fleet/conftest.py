"""Shared fixtures for reader-farm (fleet) tests."""

from __future__ import annotations

import pytest

from repro.db import Deployment, InMemoryService, Service
from repro.fleet import FleetRouter

from tests.db.conftest import simple_table_def, small_config


def load_fleet(fleet, table="T", n=100, start=0):
    """Insert ``n`` committed rows through the fleet's primary."""
    txn = fleet.primary.begin()
    rowids = []
    for i in range(start, start + n):
        rowids.append(
            fleet.primary.insert(txn, table, (i, i * 1.0, f"v{i % 5}"))
        )
    scn = fleet.primary.commit(txn)
    return rowids, scn


def build_fleet(n_standbys=3):
    fleet = Deployment.build(config=small_config(), n_standbys=n_standbys)
    fleet.create_table(simple_table_def())
    rowids, __ = load_fleet(fleet)
    fleet.enable_inmemory("T", service=InMemoryService.STANDBY)
    fleet.catch_up()
    return fleet, rowids


@pytest.fixture
def fleet():
    return build_fleet()


@pytest.fixture
def router(fleet):
    """A lag-aware router over the 3-member fleet, with the three
    service flavours registered.  Sessions submit synchronously (no
    query services attached), which keeps routing tests deterministic.
    """
    deployment, __ = fleet
    router = FleetRouter(deployment)
    router.registry.create("oltp", Service.PRIMARY_ONLY)
    router.registry.create("reports", Service.STANDBY_ONLY)
    router.registry.create("mixed", Service.PRIMARY_AND_STANDBY)
    return router
