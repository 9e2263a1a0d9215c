"""The session wave counts refused connects as lost clients -- and only
those: a defect in the router must not pass as one."""

from __future__ import annotations

import pytest

from repro.fleet import FleetRouter, NoQualifyingStandbyError
from repro.fleet.wave import SessionWave, WaveConfig


class RaisingRouter(FleetRouter):
    """A router whose queued connect raises ``error``."""

    def __init__(self, deployment, error: Exception) -> None:
        super().__init__(deployment)
        self.error = error

    def connect_queued(self, service_name, **kwargs):
        raise self.error


def run_wave(fleet, error: Exception) -> SessionWave:
    deployment, __ = fleet
    wave = SessionWave(
        deployment, RaisingRouter(deployment, error),
        WaveConfig(n_clients=3, writer_fraction=0.0),
    )
    deployment.sched.add_actor(wave)
    assert deployment.sched.run_until_condition(
        lambda: wave.done, max_time=10.0
    )
    return wave


def test_a_refused_connect_is_a_lost_client(fleet):
    wave = run_wave(fleet, NoQualifyingStandbyError("no member covers it"))
    assert wave.failed_connects == 3
    assert all(record.lost for record in wave.records)


def test_a_router_defect_propagates(fleet):
    with pytest.raises(TypeError, match="unexpected keyword"):
        run_wave(fleet, TypeError("unexpected keyword argument 'min_scn'"))
