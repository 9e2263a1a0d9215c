"""End-to-end QueryService tests: morsel-parallel scans against a live
deployment."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.common.config import RACConfig
from repro.db import Deployment, InMemoryService
from repro.imcs.scan import ROWSTORE_BLOCKS_PER_MORSEL, ScanStats

from tests.db.conftest import (  # noqa: F401
    deployment,
    load,
    loaded_deployment,
    simple_table_def,
    small_config,
)


@pytest.fixture
def service_deployment(loaded_deployment):  # noqa: F811
    deployment, __ = loaded_deployment
    service = deployment.start_query_service(n_workers=4)
    yield deployment, service
    service.shutdown()


class TestScan:
    def test_scan_matches_standby_query(self, service_deployment):
        deployment, service = service_deployment
        serial = deployment.standby.query("T")
        result = service.scan("T")
        assert result.rows == serial.rows
        assert result.stats == serial.stats


class TestEveryMorselKind:
    def test_stats_and_rowstore_morsels_equal_the_serial_scan(self):
        """A member's published QuerySCN is the lowest of its instances';
        with a slow interconnect the master publishes, and populates
        units, a message latency before its peer, so some units postdate
        the member's snapshot: a stats-only morsel counts them.  A table
        not enabled in memory is chunks of row-store blocks.  Through the
        service, rows and every stats field equal the serial scan."""
        deployment = Deployment.build(
            config=small_config(rac=RACConfig(interconnect_latency=0.05))
        )
        member = deployment.add_standby_cluster(n_instances=2)
        deployment.create_table(simple_table_def(rows_per_block=4))
        deployment.create_table(simple_table_def("U", rows_per_block=4))
        load(deployment, n=200)
        load(deployment, table="U", n=100)
        deployment.catch_up()
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        assert deployment.sched.run_until_condition(
            lambda: postdating_units(member), max_time=1.0
        )
        service = deployment.start_query_service(n_workers=2)
        # only the service's workers run on: no population or apply moves
        # the member between the serial scan and the morsels
        for actor in list(deployment.sched.actors):
            if actor not in service.workers:
                deployment.sched.remove_actor(actor)
        u_blocks = member.catalog.table("U").partition("P0").segment.n_blocks
        assert u_blocks > ROWSTORE_BLOCKS_PER_MORSEL
        kinds = {}
        for name in ("T", "U"):
            pending = service.submit(name)
            kinds[name] = [morsel.kind for morsel in pending.morsels]
            serial = member.scan_engine.scan(
                member.catalog.table(name), pending.scn
            )
            assert deployment.sched.run_until_condition(
                lambda: pending.done, max_time=1.0
            )
            stats, expected = pending.result.stats, serial.stats
            assert pending.result.rows == serial.rows
            assert stats.cost_seconds.hex() == expected.cost_seconds.hex()
            for field in fields(ScanStats):
                assert getattr(stats, field.name) == getattr(
                    expected, field.name
                ), field.name
        assert "stats" in kinds["T"]
        assert kinds["U"] == ["rowstore"] * -(
            -u_blocks // ROWSTORE_BLOCKS_PER_MORSEL
        )


def postdating_units(member) -> int:
    """Units on any instance built above the member's published QuerySCN."""
    scn = member.published_scn
    object_id = member.catalog.table("T").partition("P0").object_id
    return sum(
        unit.imcu.snapshot_scn > scn
        for instance in member.instances
        if instance.imcs.is_enabled(object_id)
        for unit in instance.imcs.segment(object_id).live_units()
    )
