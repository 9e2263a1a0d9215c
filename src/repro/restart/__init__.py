"""Instant standby restart: checkpointed IMCS population + tail replay."""

from repro.restart.checkpoint import (
    CheckpointStore,
    CheckpointWriter,
    ObjectCheckpoint,
    UnitCheckpoint,
)
from repro.restart.replay import (
    RestartReport,
    instant_restart,
)

__all__ = [
    "CheckpointStore",
    "CheckpointWriter",
    "ObjectCheckpoint",
    "UnitCheckpoint",
    "RestartReport",
    "instant_restart",
]
