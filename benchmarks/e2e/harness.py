"""One repeat of one workload, and the roll-up of repeats into metrics.

A repeat builds a fresh deployment (set-up, timed), runs the workload's
stages (timed), drains, and checks the golden invariant along the way.
Every repeat of a run uses the same seed, so the sim clock and every
count must come out bit-identical -- traced or not, and whichever slices
the repeat checks the invariant at -- and the roll-up treats any
difference as a failure.  Time-based numbers are calibrated
CPU seconds, kept per timed entry (see calibrate.py) so the roll-up can
take each entry's median over the repeats.
"""

from __future__ import annotations

import gc
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.db.deployment import Deployment, InMemoryService
from repro.imcs.scan import ScanStats
from repro.redo.shipping import LogShipper
from repro.rowstore.undo_retention import UndoRetentionManager

from . import trace
from .calibrate import Kernel, Meter
from .check import PrimaryRead
from .loadgen import Dataset, DMLDriver, QueryClient
from .stats import percentile, visibility_lags
from .workloads import Workload

#: sim seconds a DML stage runs before redo-gap samples count (Fig. 11);
#: the gap is then sampled after every timed step
GAP_WARMUP_SIM_S = 0.5
#: sim seconds per timed step while draining (set-up catch-up, final drain)
DRAIN_STEP_SIM_S = 0.0005
#: a stage's slice runs as this many timed steps, so that a timed entry is
#: a few milliseconds long and has a kernel sample right beside it
RUN_STEPS_PER_SLICE = 16
DRAIN_TIMEOUT_SIM_S = 600.0
#: bulk populations per set-up: the first is part of ``setup_s``; the
#: others drop every IMCU and populate from nothing again, because one
#: pass is 0.1-0.2 s in a handful of ``IMCU.build`` calls too long to put
#: a kernel sample inside, and the populate rate over it alone swung 13%
POPULATE_PASSES = 3
#: slices per main stage and repeat at which the golden invariant is
#: checked, for every query kind, besides the final drain.  Each repeat
#: of a run samples other slices of the same seeded history, so three
#: repeats check at least 21 distinct points.
CHECKS_PER_STAGE = 7


def check_slices(slices: int, run_id: int) -> range:
    """The ``CHECKS_PER_STAGE`` slices of a ``slices``-long stage after
    which repeat ``run_id`` checks the golden invariant: evenly spaced up
    to the end of the stage, shifted by one slice from repeat to repeat."""
    every = max(slices // CHECKS_PER_STAGE, 1)
    last = slices - 1 - run_id % every
    return range(last - every * (CHECKS_PER_STAGE - 1), last + 1, every)


@dataclass
class Repeat:
    """Everything one repeat measured."""

    traced: bool
    #: ``bucket -> calibrated seconds of each timed entry``, in order; the
    #: entries of one bucket line up across the repeats of a run.  Set-up
    #: buckets: load, catch_up, populate, populate_again.  Stage buckets: dml (one entry
    #: per timed sim step), query (one entry per round of the query mix),
    #: and probe_dml / probe_query for probe stages.
    cal_s: dict[str, list[float]] = field(default_factory=dict)
    #: raw wall seconds per bucket, information only
    wall_s: dict[str, float] = field(default_factory=dict)
    kernel_share: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: ``(stage, slice, QuerySCN)`` of every mid-run invariant check
    checked: set[tuple[int, int, int]] = field(default_factory=set)
    #: sim-clock metrics and counts: identical in every repeat of a run
    exact: dict[str, float] = field(default_factory=dict)
    #: main-stage deltas of the layers' public counters (also exact)
    counts: dict[str, float] = field(default_factory=dict)
    #: spans of a traced repeat; the caller folds them into ``layers``
    #: (report.layer_rows) and keeps only the last repeat's for the file
    spans: list[list] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def drain(deployment: Deployment, meter: Meter, bucket: str, tracer) -> None:
    """``Deployment.catch_up`` in calibrated slices: run until the standby
    has published everything generated so far and population is idle."""
    target = deployment.primary.clock.current
    standby = deployment.standby
    deadline = deployment.sched.now + DRAIN_TIMEOUT_SIM_S
    while (
        standby.query_scn.value < target
        or not standby.population.fully_populated()
    ):
        if deployment.sched.now > deadline:
            raise TimeoutError(
                f"standby lagging: QuerySCN {standby.query_scn.value} "
                f"< {target}"
            )
        with meter.timed(bucket), tracer.span("sim.scheduler:run"):
            deployment.run(DRAIN_STEP_SIM_S)
        meter.maybe_calibrate()


def layer_counts(deployment: Deployment) -> dict[str, float]:
    """The layers' public counters, read from outside."""
    primary, standby = deployment.primary, deployment.standby
    workers = standby.workers
    actors = deployment.sched.actors
    retention = [a for a in actors if isinstance(a, UndoRetentionManager)]
    shippers = [a for a in actors if isinstance(a, LogShipper)]
    population = standby.population
    return {
        "db.primary.redo_records_generated": sum(
            len(log) for log in primary.redo_logs
        ),
        "redo.shipping.records_shipped": sum(
            s.shipped_through for s in shippers
        ),
        "adg.merger.records_merged": standby.merger.records_merged,
        "adg.apply.cvs_applied": sum(w.cvs_applied for w in workers),
        "adg.apply.apply_stalls": sum(w.apply_stalls for w in workers),
        "adg.apply.sniff_retries": sum(w.sniff_retries for w in workers),
        "dbim_adg.mining.data_records_mined": standby.miner.data_records_mined,
        "dbim_adg.mining.latch_misses": standby.miner.latch_misses,
        "dbim_adg.flush.nodes_flushed": standby.flush.nodes_flushed,
        "dbim_adg.flush.nodes_flushed_by_workers": (
            standby.flush.nodes_flushed_by_workers
        ),
        "dbim_adg.flush.groups_created": standby.flush.groups_created,
        "dbim_adg.journal.anchors_created": standby.journal.anchors_created,
        "dbim_adg.commit_table.inserts": standby.commit_table.inserts,
        "adg.coordinator.advancements": standby.coordinator.advancements,
        "adg.coordinator.publications": standby.query_scn.publications,
        "adg.coordinator.quiesce_wait_retries": (
            standby.coordinator.quiesce_wait_retries
        ),
        "imcs.population.populations": population.populations,
        "imcs.population.repopulations": population.repopulations,
        "imcs.population.rows_populated": population.rows_populated,
        "imcs.population.quiesce_retries": population.quiesce_retries,
        "imcs.rows_invalidated": standby.imcs.rows_invalidated,
        "rowstore.versions_pruned": sum(a.versions_pruned for a in retention),
    }


def set_up(workload: Workload, seed: int, setup: Meter, tracer):
    """Build + create + bulk load + apply catch-up + initial population,
    timed into ``setup``; returns the deployment and its dataset."""
    table = workload.table
    with setup.timed("load"):
        deployment = Deployment.build(config=workload.system_config(seed))
        deployment.create_table(table.table_def())
    data = Dataset(table, workload.n_rows, seed)
    while True:
        with setup.timed("load"):
            loaded = data.load_batch(deployment.primary)
        if not loaded:
            break
        setup.maybe_calibrate()
    drain(deployment, setup, "catch_up", tracer)
    with setup.timed("populate"):
        deployment.enable_inmemory(table.name, service=InMemoryService.STANDBY)
    drain(deployment, setup, "populate", tracer)
    standby = deployment.standby
    for _ in range(POPULATE_PASSES - 1):
        with setup.timed("populate_again"):
            for object_id in standby.imcs.enabled_object_ids:
                standby.imcs.drop_units(object_id)
            standby.population.schedule_all()
        drain(deployment, setup, "populate_again", tracer)
    return deployment, data


def run_repeat(
    workload: Workload, seed: int, kernel: Kernel, traced: bool, run_id: int
) -> Repeat:
    repeat = Repeat(traced=traced)
    table = workload.table
    tracer = trace.Tracer()
    tracer.run_id = run_id

    gc.collect()
    setup = Meter(kernel)
    setup.calibrate()
    deployment, data = set_up(workload, seed, setup, tracer)
    setup.calibrate()
    primary, standby = deployment.primary, deployment.standby
    populated_rows_at_setup = standby.imcs.populated_rows

    if traced:
        tracer.install(deployment)
    client = QueryClient(table, seed + 1)
    # invariant checks that need queries of their own (a stage without
    # queries, the final drain) draw them from a second client, so that
    # which slices a repeat samples never shifts the timed constants
    checker = QueryClient(table, seed + 2)
    meter = Meter(kernel)
    scans = {False: ScanStats(), True: ScanStats()}  # keyed by stage.probe
    drivers_run: list[tuple[bool, DMLDriver]] = []  # (stage.probe, driver)
    gaps: list[int] = []
    journal_peak = commit_table_peak = 0
    counts_before = layer_counts(deployment)
    counts_after: Optional[dict[str, float]] = None

    def check(answered: list[tuple]) -> None:
        """``(query, answer)`` pairs computed at the current QuerySCN."""
        scn = standby.query_scn.value
        read = PrimaryRead(primary, table.name, scn)
        for query, answer in answered:
            repeat.attempted += 1
            if not read.matches(query, answer):
                repeat.failed += 1
                print(
                    f"MISMATCH {workload.name} {query.kind} at QuerySCN "
                    f"{scn}: {query}"
                )

    gc.collect()
    meter.calibrate()
    for stage_index, stage in enumerate(workload.stages):
        if stage.probe and counts_after is None:
            counts_after = layer_counts(deployment)
        tracer.active = traced and not stage.probe
        prefix = "probe_" if stage.probe else ""
        drivers = [
            DMLDriver(primary, data, spec, seed * 1000 + stage_index * 10 + i)
            for i, spec in enumerate(stage.drivers)
        ]
        for driver in drivers:
            deployment.sched.add_actor(driver)
            if traced:
                tracer.wrap(driver, "step", "workload:dml_driver.step")
        started_at = deployment.sched.now
        gap_warmup = min(
            GAP_WARMUP_SIM_S, stage.slices * stage.slice_sim_s / 2
        )
        checks = check_slices(stage.slices, run_id)
        step_sim_s = stage.slice_sim_s / RUN_STEPS_PER_SLICE
        for slice_index in range(stage.slices):
            if stage.slice_sim_s:
                for _ in range(RUN_STEPS_PER_SLICE):
                    with meter.timed(prefix + "dml"), tracer.span(
                        "sim.scheduler:run"
                    ):
                        deployment.run(step_sim_s)
                    if deployment.sched.now - started_at >= gap_warmup:
                        gaps.append(deployment.redo_lag_scns)
                    meter.maybe_calibrate()
                if not stage.probe:
                    journal_peak = max(
                        journal_peak, standby.journal.anchor_count
                    )
                    commit_table_peak = max(
                        commit_table_peak, len(standby.commit_table)
                    )
            answered = []
            for _ in range(stage.rounds_per_slice):
                round_queries = client.round()
                with meter.timed(prefix + "query"):
                    for query in round_queries:
                        with tracer.span("workload:query." + query.kind):
                            answered.append((query, *query.run(standby)))
                meter.maybe_calibrate()
            for _, _, stats in answered:
                scans[stage.probe].merge(stats)
            repeat.attempted += len(answered)
            if not stage.probe and slice_index in checks:
                to_check = [(query, answer) for query, answer, _ in answered]
                if not to_check:
                    with tracer.paused():
                        to_check = [
                            (query, query.run(standby)[0])
                            for query in checker.round()
                        ]
                check(to_check)
                repeat.checked.add(
                    (stage_index, slice_index, standby.query_scn.value)
                )
        for driver in drivers:
            driver.commit(deployment.sched.now)
            deployment.sched.remove_actor(driver)
            drivers_run.append((stage.probe, driver))
        if drivers:
            drain(deployment, meter, prefix + "dml", tracer)
    tracer.active = False
    meter.calibrate()
    if counts_after is None:
        counts_after = layer_counts(deployment)

    # final drain: every query kind against the primary
    check([(query, query.run(standby)[0]) for query in checker.round()])

    # ---- roll the repeat up ----------------------------------------------
    repeat.cal_s = {**setup.calibrated(), **meter.calibrated()}
    repeat.wall_s = {**setup.wall_s(), **meter.wall_s()}
    repeat.kernel_share = meter.kernel_share
    tracer.calibrate(meter.factor_at)
    repeat.spans = tracer.spans
    repeat.attempted += sum(d.dml_ops + d.fetches for _, d in drivers_run)
    lags = visibility_lags(
        [entry for _, d in drivers_run for entry in d.commit_log],
        standby.query_scn.history,
    )
    repeat.exact = {
        "rows_populated_at_setup": populated_rows_at_setup * POPULATE_PASSES,
        "dml_ops": sum(d.dml_ops for _, d in drivers_run),
        "queries_per_round": len(table.query_kinds),
        "scan_rows": sum(
            s.imcs_rows + s.rowstore_rows for s in scans.values()
        ),
        "commits": len(lags),
        "queryscn_history_crc": zlib.crc32(
            repr(standby.query_scn.history).encode()
        ),
        "visibility_lag_sim_ms_p50": percentile(lags, 50) * 1e3,
        "visibility_lag_sim_ms_p90": percentile(lags, 90) * 1e3,
        "redo_gap_samples": len(gaps),
        "redo_gap_scns_p90": percentile(gaps, 90),
        "imcs_bytes_per_row": (
            standby.imcs.used_bytes / standby.imcs.populated_rows
        ),
        "workload.retries": sum(d.retries for _, d in drivers_run),
        "workload.schedule_lag_sim_ms_max": 1e3 * max(
            d.max_late_s for _, d in drivers_run
        ),
        **{
            f"timed_entries.{bucket}": len(entries)
            for bucket, entries in repeat.cal_s.items()
        },
    }
    main_scans = scans[False]
    repeat.counts = {
        **{k: counts_after[k] - counts_before[k] for k in counts_after},
        "db.primary.ops": sum(
            d.dml_ops + d.fetches for probe, d in drivers_run if not probe
        ),
        "dbim_adg.journal.peak_occupancy": journal_peak,
        "dbim_adg.commit_table.peak_occupancy": commit_table_peak,
        "imcs.scan.queries": len(table.query_kinds) * sum(
            s.slices * s.rounds_per_slice
            for s in workload.stages if not s.probe
        ),
        "imcs.scan.imcs_rows": main_scans.imcs_rows,
        "imcs.scan.fallback_rows": main_scans.fallback_rows,
        "imcs.scan.imcus_used": main_scans.imcus_used,
        "imcs.scan.imcus_pruned": main_scans.imcus_pruned,
        "imcs.scan.imcus_unusable": main_scans.imcus_unusable,
    }
    return repeat
