"""End-to-end QueryService tests: morsel-parallel scans against a live
deployment."""

from __future__ import annotations

import pytest

from tests.db.conftest import deployment, loaded_deployment  # noqa: F401


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
