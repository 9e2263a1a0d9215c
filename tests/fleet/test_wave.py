"""The session wave swallows no router error: a queued connect cannot be
refused (it waits or expires), so anything it raises is a defect."""

from __future__ import annotations

import pytest

from repro.fleet import FleetRouter
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


def test_a_router_defect_propagates(fleet):
    with pytest.raises(TypeError, match="unexpected keyword"):
        run_wave(fleet, TypeError("unexpected keyword argument 'min_scn'"))
