"""Configuration knobs for every subsystem, gathered in one place.

Defaults are chosen so that unit tests run in milliseconds while the
benchmark harness can scale the same code up to the paper's workload shape
(a 101-column wide table, 70/25/1 DML mixes, multi-instance RAC).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _check_ranges(config, checks) -> None:
    """Raise on the first ``(field, in_range)`` pair that is out of range:
    a bad knob fails at construction, not as a silent misbehaviour."""
    for name, ok in checks:
        if not ok:
            raise ValueError(
                f"{type(config).__name__}.{name} out of range: "
                f"{getattr(config, name)!r}"
            )


@dataclass(slots=True)
class RowStoreConfig:
    """Row store geometry."""

    # Rows that fit in one data block.  The paper's table has 101 columns on
    # 8 KiB blocks (~50-60 rows/block); we default a bit higher so small
    # tests use few blocks.
    rows_per_block: int = 64
    # Undo retention: how many superseded row versions each slot keeps.
    # Older versions are pruned; a consistent read that needs one raises
    # SnapshotTooOldError (ORA-01555 analogue).
    undo_retention_versions: int = 1024

    def __post_init__(self) -> None:
        _check_ranges(self, (
            ("rows_per_block", self.rows_per_block >= 1),
            ("undo_retention_versions", self.undo_retention_versions >= 1),
        ))


@dataclass(slots=True)
class IMCSConfig:
    """In-Memory Column Store parameters."""

    # Target rows per IMCU.  Oracle packs a few hundred thousand rows per
    # IMCU; scaled down with everything else.
    imcu_target_rows: int = 4096
    # Repopulation triggers when this fraction of an IMCU's rows is invalid.
    repopulate_invalid_fraction: float = 0.25
    # Number of background population worker actors.
    population_workers: int = 2
    # Minimum simulated seconds between repopulations of the same IMCU
    # (the paper: "a set of heuristics are used to ... tune the
    # repopulation frequency").
    repopulate_min_interval: float = 0.5
    # Simulated CPU seconds to populate one row into an IMCU.  Raising it
    # models population pressure: how fast inserts outrun the background
    # (re)population that folds edge rows back into the columnar format.
    populate_cost_per_row: float = 2e-6

    def __post_init__(self) -> None:
        _check_ranges(self, (
            ("imcu_target_rows", self.imcu_target_rows >= 1),
            ("repopulate_invalid_fraction",
             0 < self.repopulate_invalid_fraction <= 1),
            ("population_workers", self.population_workers >= 1),
            ("repopulate_min_interval", self.repopulate_min_interval >= 0),
            ("populate_cost_per_row", self.populate_cost_per_row >= 0),
        ))


@dataclass(slots=True)
class ApplyConfig:
    """Parallel redo apply (media recovery) parameters."""

    # Number of recovery worker processes.
    n_workers: int = 4
    # Change vectors a worker applies per scheduler step (its batch size).
    worker_batch: int = 64
    # Simulated seconds between recovery-coordinator progress checks.
    coordinator_interval: float = 0.01
    # Worklink nodes a recovery worker flushes per step during cooperative
    # flush, before returning to redo apply.
    cooperative_flush_batch: int = 8
    # Worklink nodes the recovery coordinator itself flushes per step.
    coordinator_flush_batch: int = 32
    # Simulated CPU seconds to apply one change vector.  Raising it models
    # apply pressure (how fast recovery keeps up with redo generation) --
    # the lever behind the MIRA scale-out benchmark.
    apply_cost_per_cv: float = 1e-6
    # Whether recovery workers participate in invalidation flush at all
    # (ablation: coordinator-only flush).
    cooperative_flush: bool = True

    def __post_init__(self) -> None:
        _check_ranges(self, (
            ("n_workers", self.n_workers >= 1),
            ("worker_batch", self.worker_batch >= 1),
            ("cooperative_flush_batch", self.cooperative_flush_batch >= 1),
            ("coordinator_flush_batch", self.coordinator_flush_batch >= 1),
            ("coordinator_interval", self.coordinator_interval >= 0),
            ("apply_cost_per_cv", self.apply_cost_per_cv >= 0),
        ))


@dataclass(slots=True)
class JournalConfig:
    """IM-ADG Journal and Commit Table parameters."""

    # If True the primary annotates commit records with the "modified an
    # IMCS-enabled object" flag (paper, III-E: specialized redo generation).
    specialized_commit_redo: bool = True


@dataclass(slots=True)
class RACConfig:
    """Cluster shape and interconnect behaviour.  A RAC standby's instance
    count is ``Deployment.add_standby_cluster``'s argument."""

    primary_instances: int = 1
    # Simulated one-way interconnect latency in seconds.
    interconnect_latency: float = 0.0005
    # Invalidation groups per interconnect message (paper, III-F: batching
    # and pipelined transmission reduce the network's impact on QuerySCN
    # advancement).
    invalidation_batch_size: int = 32

    def __post_init__(self) -> None:
        _check_ranges(self, (
            ("primary_instances", self.primary_instances >= 1),
            ("interconnect_latency", self.interconnect_latency >= 0),
            ("invalidation_batch_size", self.invalidation_batch_size >= 1),
        ))


@dataclass(slots=True)
class RestartConfig:
    """Population checkpoints and the instant-restart path (repro.restart)."""

    # Minimum simulated seconds between checkpoint captures of one object.
    checkpoint_interval: float = 0.2
    # Simulated CPU seconds to reinstall one checkpointed row at restart.
    # Restoring decodes nothing and reads no blocks through Consistent
    # Read, so it is an order of magnitude cheaper than population.
    restore_cost_per_row: float = 2e-7
    # Simulated CPU seconds to re-mine one redo-tail CV at restart.
    remine_cost_per_cv: float = 5e-7

    def __post_init__(self) -> None:
        _check_ranges(self, (
            ("checkpoint_interval", self.checkpoint_interval >= 0),
            ("restore_cost_per_row", self.restore_cost_per_row >= 0),
            ("remine_cost_per_cv", self.remine_cost_per_cv >= 0),
        ))


@dataclass(slots=True)
class SystemConfig:
    """Top-level configuration for a primary/standby deployment."""

    rowstore: RowStoreConfig = field(default_factory=RowStoreConfig)
    imcs: IMCSConfig = field(default_factory=IMCSConfig)
    apply: ApplyConfig = field(default_factory=ApplyConfig)
    journal: JournalConfig = field(default_factory=JournalConfig)
    rac: RACConfig = field(default_factory=RACConfig)
    restart: RestartConfig = field(default_factory=RestartConfig)
    # Simulated one-way redo shipping latency (primary -> standby), seconds.
    ship_latency: float = 0.002
    # Random seed for every stochastic choice in the simulation.
    seed: int = 20200420

    def __post_init__(self) -> None:
        _check_ranges(self, (("ship_latency", self.ship_latency >= 0),))
