"""The four workloads, as data.

Each is a table, a system configuration and a list of stages.  A stage is
``slices`` rounds of: run the sim for ``slice_sim_s`` with the stage's DML
drivers attached, then issue ``rounds_per_slice`` rounds of the table's query mix (every
kind once, seeded constants) on the standby.  After
a stage with drivers the harness stops them and drains the standby.

The driver contract wants every end-to-end metric from every workload, so
a workload whose main stages have no DML (or no queries) ends with a short
*probe* stage of the missing kind.  Probe stages are timed for the
end-to-end metrics only: they are never traced and never counted in the
per-layer table, so the layer shares describe the main stages alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.config import ApplyConfig, IMCSConfig, RACConfig, SystemConfig

from .loadgen import DriverSpec, FactTable, WideTable


#: about the CPU seconds the timed stages of one repeat take (2-4 across
#: the workloads) on the box the benchmark was sized on
REPEAT_CPU_S = 2.7


def repeats_for(seconds: float) -> int:
    """``--seconds`` buys whole repeats, never fewer than three: a run is
    a fixed, seed-determined amount of work whose completion is timed, not
    a loop cut off by a timer."""
    return max(3, round(seconds / REPEAT_CPU_S))


@dataclass(frozen=True)
class Stage:
    slices: int
    slice_sim_s: float = 0.0
    #: each round issues every query kind of the table once
    rounds_per_slice: int = 0
    drivers: tuple[DriverSpec, ...] = ()
    probe: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    table: object
    n_rows: int
    imcs: IMCSConfig
    stages: tuple[Stage, ...]
    primary_instances: int = 1

    def system_config(self, seed: int) -> SystemConfig:
        return SystemConfig(
            imcs=replace(self.imcs),
            apply=ApplyConfig(n_workers=4),
            rac=RACConfig(primary_instances=self.primary_instances),
            seed=seed,
        )

    def scaled(self, factor: float) -> "Workload":
        """A smaller copy for smoke tests: fewer rows, fewer slices."""
        return replace(
            self,
            n_rows=max(int(self.n_rows * factor), 1000),
            stages=tuple(
                replace(s, slices=max(int(s.slices * factor), 8))
                for s in self.stages
            ),
        )


_OLTP = dict(ops_per_sim_s=500.0, pct_update=0.55, pct_insert=0.15)
_UPDATER = DriverSpec(
    ops_per_sim_s=2000.0, pct_update=1.0, pct_insert=0.0, hot_half=True
)
_QUERY_PROBE = Stage(slices=12, rounds_per_slice=1, probe=True)
_DML_PROBE = Stage(slices=24, slice_sim_s=0.05, drivers=(_UPDATER,), probe=True)

WORKLOADS = (
    Workload(
        name="oltap_mixed",
        why=(
            "Fig. 9-11 shape: wide table, two primary instances, DML beside "
            "scans; every layer works and trickle repopulation dominates"
        ),
        table=WideTable(),
        n_rows=6_000,
        imcs=IMCSConfig(
            imcu_target_rows=1024,
            population_workers=2,
            repopulate_invalid_fraction=0.02,
            repopulate_min_interval=0.1,
        ),
        primary_instances=2,
        stages=(
            Stage(
                slices=40, slice_sim_s=0.05, rounds_per_slice=1,
                drivers=(
                    DriverSpec(instance_id=1, **_OLTP),
                    DriverSpec(instance_id=2, **_OLTP),
                ),
            ),
        ),
    ),
    Workload(
        name="ingest_firehose",
        why=(
            "same pipeline with population nearly idle: apply, mining, "
            "flush and redo generation carry the run, so an ingest-path "
            "change shows here and a population-encode change does not"
        ),
        table=FactTable(),
        n_rows=20_000,
        imcs=IMCSConfig(
            imcu_target_rows=8192,
            population_workers=2,
            repopulate_invalid_fraction=1.0,
        ),
        stages=(
            Stage(
                slices=40, slice_sim_s=0.025,
                drivers=(
                    DriverSpec(
                        ops_per_sim_s=20_000.0, pct_update=0.7,
                        pct_insert=0.3, ops_per_step=16,
                    ),
                ),
            ),
            _QUERY_PROBE,
        ),
    ),
    Workload(
        name="scan_static",
        why=(
            "populated then quiesced: scan kernels do all the work and "
            "ingest none; set-up exercises bulk initial population"
        ),
        table=FactTable(),
        n_rows=48_000,
        imcs=IMCSConfig(
            imcu_target_rows=8192,
            population_workers=2,
            repopulate_invalid_fraction=0.03,
            repopulate_min_interval=0.2,
        ),
        stages=(Stage(slices=300, rounds_per_slice=1), _DML_PROBE),
    ),
    Workload(
        name="scan_churn",
        why=(
            "same table and query mix with an updater beside it: SMU "
            "reconcile and row-store fallback dominate, so a scan change "
            "that assumes clean IMCUs is caught"
        ),
        table=FactTable(),
        n_rows=48_000,
        imcs=IMCSConfig(
            imcu_target_rows=8192,
            population_workers=2,
            repopulate_invalid_fraction=0.03,
            repopulate_min_interval=0.2,
        ),
        stages=(
            Stage(
                slices=50, slice_sim_s=0.05, rounds_per_slice=1,
                drivers=(_UPDATER,),
            ),
        ),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
