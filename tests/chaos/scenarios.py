"""Canned chaos scenarios: the paper's hard cases as replayable runs.

Every scenario builds a small deterministic deployment, runs a DML
workload while a :class:`~tests.chaos.harness.FaultPlan` perturbs the
pipeline, then catches the standby up and checks the invariant battery.
A scenario is one :class:`Scenario` record in :data:`SCENARIOS`; its
description says which failure mode of the paper it provokes.
``python -m tests.chaos --scenario all --seed 7`` runs each one twice
and verifies the two reports are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cdc import ReplaySubscriber
from repro.chaos.sites import SiteRegistry
from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, Service, TableDef
from repro.db.failover import failover
from repro.fleet import FleetRouter, SessionWave, WaveConfig

from tests.chaos import faults as F
from tests.chaos.harness import ChaosContext, FaultPlan
from tests.chaos.invariants import (
    Invariant,
    InvariantResult,
    NoGapSkip,
    QuerySCNMonotonic,
    standard_invariants,
)

#: The churned table, the rows loaded before the run, and the sim seconds
#: between two bursts of churn -- the same in every scenario.
TABLE = "T"
LOAD_ROWS = 100
BURST_GAP = 0.2

STANDARD = tuple(standard_invariants(TABLE))


def churn(scenario: "Scenario", ctx: ChaosContext) -> None:
    """Deterministic DML churn: updates + trickle inserts in bursts."""
    deployment = ctx.deployment
    rowids = ctx.extra["rowids"]
    rng = random.Random(10_000 + scenario.bursts)
    next_id = LOAD_ROWS
    for burst in range(scenario.bursts):
        txn = deployment.primary.begin()
        for __ in range(scenario.rows_per_burst):
            rowid = rowids[rng.randrange(len(rowids))]
            deployment.primary.update(
                txn, TABLE, rowid, {"n1": float(rng.randrange(10_000))},
            )
        if burst % 3 == 0:
            rowid = deployment.primary.insert(
                txn, TABLE, (next_id, float(next_id), f"v{next_id % 5}"),
            )
            rowids.append(rowid)
            next_id += 1
        deployment.primary.commit(txn)
        deployment.run(BURST_GAP)


def catch_up(ctx: ChaosContext) -> None:
    ctx.deployment.catch_up(timeout=900.0)


def pipeline_stats(ctx: ChaosContext) -> dict[str, int]:
    standby = ctx.deployment.standby
    receiver = standby.receiver
    shippers = [site.owner for site in ctx.registry.sites("redo.ship")]
    return {
        "advancements": standby.coordinator.advancements,
        "publications": len(standby.query_scn.history),
        "publish_stalls": standby.coordinator.publish_stalls,
        "gaps_resolved": receiver.gaps_resolved,
        "gap_records_fetched": receiver.gap_records_fetched,
        "duplicates_discarded": receiver.duplicates_discarded,
        "receive_batches_dropped": receiver.batches_dropped,
        "ship_records_dropped": sum(s.records_dropped for s in shippers),
        "worker_cvs_applied": sum(w.cvs_applied for w in standby.workers),
        "worker_chaos_stalls": sum(w.chaos_stalls for w in standby.workers),
        "flush_nodes": standby.flush.nodes_flushed,
        "flush_nodes_by_workers": standby.flush.nodes_flushed_by_workers,
        "flush_chaos_stalls": standby.flush.chaos_stalls,
        "journal_anchors": standby.journal.anchor_count,
        "commit_table_nodes": len(standby.commit_table),
        "standby_restarts": standby.restarts,
    }


@dataclass(frozen=True)
class Scenario:
    """One chaos scenario: a topology, a churn shape, a fault plan and
    the verdict.  Per-run state lives in ``ctx.extra`` (``rowids`` is the
    loaded rows' ids), never on the record, so a record can run again."""

    name: str
    description: str
    #: Builds a fresh (single-use) plan for each run.
    plan: Callable[[], FaultPlan] = FaultPlan
    #: Standby members, instances of the first one (a SIRA standby RAC
    #: when > 1), and where the table populates (an InMemoryService value).
    n_standbys: int = 1
    cluster_instances: int = 1
    service: str = "both"
    bursts: int = 10
    rows_per_burst: int = 12
    #: Runs once the table is loaded and populated, before the plan arms.
    setup: Optional[Callable[[ChaosContext], None]] = None
    drive: Callable[["Scenario", ChaosContext], None] = churn
    finish: Callable[[ChaosContext], None] = catch_up
    invariants: tuple[Invariant, ...] = STANDARD
    stats: Callable[[ChaosContext], dict[str, int]] = pipeline_stats

    def build(self, registry: SiteRegistry, seed: int) -> ChaosContext:
        """The loaded, populated and caught-up deployment in a fresh
        context, ``setup`` already run on it."""
        config = SystemConfig(
            imcs=IMCSConfig(imcu_target_rows=64, population_workers=1),
            apply=ApplyConfig(n_workers=4),
            seed=seed,
        )
        deployment = Deployment.build(
            config=config, n_standbys=self.n_standbys
        )
        if self.cluster_instances > 1:
            deployment.add_standby_cluster(self.cluster_instances)
        deployment.create_table(TableDef(
            TABLE,
            (
                ColumnDef.number("id", nullable=False),
                ColumnDef.number("n1"),
                ColumnDef.varchar("c1"),
            ),
            rows_per_block=8,
            indexes=("id",),
        ))
        txn = deployment.primary.begin()
        rowids = [
            deployment.primary.insert(txn, TABLE, (i, i * 1.0, f"v{i % 5}"))
            for i in range(LOAD_ROWS)
        ]
        deployment.primary.commit(txn)
        deployment.enable_inmemory(
            TABLE, service=InMemoryService(self.service)
        )
        deployment.catch_up()
        ctx = ChaosContext(
            deployment=deployment,
            registry=registry,
            sched=deployment.sched,
            extra={"rowids": rowids},
        )
        if self.setup is not None:
            self.setup(ctx)
        return ctx


# ----------------------------------------------------------------------
# checkpoint_crash
# ----------------------------------------------------------------------
def arm_checkpoints(ctx: ChaosContext) -> None:
    ctx.extra["checkpoints"] = ctx.deployment.enable_restart_checkpoints()
    # arm the writer with at least one capture round before the storm
    ctx.deployment.run(0.5)


def checkpoint_stats(ctx: ChaosContext) -> dict[str, int]:
    store = ctx.extra["checkpoints"]
    standby = ctx.deployment.standby
    report = standby.last_restart_report
    return {
        **pipeline_stats(ctx),
        "checkpoint_captures": store.captures,
        "checkpoint_discards": store.discards,
        "instant_restarts": standby.instant_restarts,
        "last_restart_units_restored": (
            report.units_restored if report is not None else 0
        ),
        "tail_commits_skipped": standby.miner.tail_commits_skipped,
    }


# ----------------------------------------------------------------------
# failover_mid_flush
# ----------------------------------------------------------------------
class _FailoverPreservedData(Invariant):
    """Post-failover: the activated primary serves exactly the data the
    old primary had committed at the final published QuerySCN, straight
    from the carried-over IMCS."""

    name = "failover_preserves_committed_data"

    def check(self, ctx: ChaosContext) -> InvariantResult:
        new_primary = ctx.extra.get("new_primary")
        if new_primary is None:
            return self._result(False, "failover never completed")
        final_scn = ctx.extra["final_query_scn"]
        old_primary = ctx.deployment.primary
        table = old_primary.catalog.table(TABLE)
        expected = sorted(
            values
            for __, values in table.full_scan(
                final_scn, old_primary.txn_table
            )
        )
        got = sorted(new_primary.query(TABLE).rows)
        if got != expected:
            return self._result(
                False,
                f"activated primary diverges at SCN {final_scn}: "
                f"{len(got)} vs {len(expected)} rows",
            )
        carried = new_primary.imcs.populated_rows
        return self._result(
            True,
            f"{len(got)} rows identical at final QuerySCN {final_scn}; "
            f"IMCS carried over {carried} populated rows",
        )


def drive_to_failover(scenario: Scenario, ctx: ChaosContext) -> None:
    deployment = ctx.deployment
    rowids = ctx.extra["rowids"]
    rng = random.Random(10_100)
    for burst in range(5):
        txn = deployment.primary.begin()
        for __ in range(20):
            rowid = rowids[rng.randrange(len(rowids))]
            deployment.primary.update(
                txn, TABLE, rowid, {"n1": float(rng.randrange(10_000))},
            )
        deployment.primary.commit(txn)
        deployment.run(0.2)
    # disaster strikes: in-flight redo, worklink possibly mid-drain
    deployment.run(0.05)
    deployment.lose_primary()
    ctx.note("note", "primary declared dead; failover begins")
    new_primary = failover(deployment.standby, deployment.sched)
    ctx.extra["new_primary"] = new_primary
    ctx.extra["final_query_scn"] = deployment.standby.query_scn.value
    ctx.note(
        "note",
        f"activated as primary at QuerySCN "
        f"{deployment.standby.query_scn.value}",
    )


# ----------------------------------------------------------------------
# standby_loss_mid_wave
# ----------------------------------------------------------------------
#: The member that dies is the routing favourite (lowest name on ties),
#: so it has live sessions to drain when it goes.
LOST_MEMBER = "standby-1"
WAVE_CLIENTS = 120


class _LoseStandby(F.Fault):
    """Dismount one standby member (``Deployment.lose_standby``)."""

    def __init__(self, member: str) -> None:
        self.member = member

    def describe(self) -> str:
        return f"LoseStandby({self.member})"

    def trigger(self, ctx: ChaosContext) -> None:
        ctx.deployment.lose_standby(self.member)
        ctx.note("fire", f"{self.describe()} dismounted {self.member}")


class _NoUnmountedRouting(Invariant):
    """No session was ever bound to -- or submitted a query on -- an
    unmounted member, through the loss and the drain."""

    name = "no_session_routed_to_unmounted_member"

    def check(self, ctx: ChaosContext) -> InvariantResult:
        router = ctx.extra["router"]
        if router.routed_unmounted:
            return self._result(
                False,
                f"{router.routed_unmounted} routes landed on an "
                "unmounted member",
            )
        routed = sum(router.decisions["routed"].values())
        return self._result(
            True, f"{routed} routing decisions, none to an unmounted member"
        )


class _RYWWaitersResolved(Invariant):
    """Read-your-writes: every grant carried a published QuerySCN
    covering the client's floor, no result was computed below a
    session's floor, and every queued waiter either admitted or expired
    with its deadline error (none left parked, none granted stale)."""

    name = "ryw_waiters_admit_covering_or_expire"

    def check(self, ctx: ChaosContext) -> InvariantResult:
        router = ctx.extra["router"]
        wave = ctx.extra["wave"]
        stale = [
            (floor, granted)
            for floor, granted, __ in router.ryw_grants
            if granted < floor
        ]
        if stale:
            return self._result(
                False, f"{len(stale)} grants below the client floor: "
                f"{stale[:3]}"
            )
        if router.ryw_violations:
            return self._result(
                False,
                f"{router.ryw_violations} results computed below a "
                "session's commitSCN floor",
            )
        if router.admission.queue_depth:
            return self._result(
                False,
                f"{router.admission.queue_depth} waiters left parked "
                "after the wave",
            )
        unresolved = [r for r in wave.records if r.done_at is None]
        if unresolved:
            return self._result(
                False, f"{len(unresolved)} wave clients never resolved"
            )
        expired = sum(1 for r in wave.records if r.timed_out)
        return self._result(
            True,
            f"{len(router.ryw_grants)} read-your-writes grants all "
            f"covering; {expired} waiters expired with the deadline error",
        )


def open_reader_farm(ctx: ChaosContext) -> None:
    ctx.deployment.start_query_service(n_workers=2)
    router = FleetRouter(ctx.deployment, max_sessions=24)
    router.registry.create("reports", Service.PRIMARY_AND_STANDBY)
    ctx.extra["router"] = router


def reader_farm_plan() -> FaultPlan:
    return (
        FaultPlan()
        # skew: slow one surviving member's shipments so lag-aware
        # routing has something to avoid while the wave runs
        .at(0.02, F.Delay(
            "redo.ship", by=0.03, count=40,
            where=lambda s, e, c: c.get("dest") == "standby-3",
        ))
        # park the doomed member's query workers past the loss time
        # (a Stall only skips one 1us dispatch per count, so it can't
        # hold a scan open; a Delay sleeps the worker itself) --
        # the drain/rebind path must actually run, not just the
        # routing filter
        .at(0.08, F.Delay(
            "query.pool", by=0.2, count=500,
            where=lambda s, e, c: str(c.get("worker", "")).startswith(
                f"{LOST_MEMBER}-query"
            ),
        ))
        .at(0.13, _LoseStandby(LOST_MEMBER))
    )


def drive_wave(scenario: Scenario, ctx: ChaosContext) -> None:
    fleet = ctx.deployment
    wave = SessionWave(
        fleet, ctx.extra["router"],
        WaveConfig(
            n_clients=WAVE_CLIENTS,
            arrival_rate=400.0,
            writer_fraction=0.4,
            connect_timeout=0.5,
            service_name="reports",
            table_name=TABLE,
            seed=20_000,
        ),
        rowids=ctx.extra["rowids"],
    )
    fleet.sched.add_actor(wave)
    if not fleet.sched.run_until_condition(
        lambda: wave.done, max_time=120.0
    ):
        ctx.note("note", "wave did not finish within the time budget")
    fleet.sched.remove_actor(wave)
    ctx.extra["wave"] = wave
    ctx.note(
        "note",
        f"wave finished: {len(wave.finished_records())} of "
        f"{WAVE_CLIENTS} clients resolved",
    )


def finish_wave(ctx: ChaosContext) -> None:
    ctx.deployment.catch_up(timeout=900.0)
    ctx.extra["router"].expire_waiters()


def reader_farm_stats(ctx: ChaosContext) -> dict[str, int]:
    fleet = ctx.deployment
    router = ctx.extra["router"]
    wave = ctx.extra["wave"]
    stats = {
        "wave_clients": len(wave.records),
        "wave_completed": len(wave.finished_records()),
        "wave_timed_out": sum(1 for r in wave.records if r.timed_out),
        "wave_lost": sum(1 for r in wave.records if r.lost),
        "wave_resubmits": sum(r.resubmits for r in wave.records),
        "router_routed": sum(router.decisions["routed"].values()),
        "router_queued": sum(router.decisions["queued"].values()),
        "router_failed_over": sum(router.decisions["failed_over"].values()),
        "router_expired": sum(router.decisions["expired"].values()),
        "router_drained": sum(router.decisions["drained"].values()),
        "router_ryw_grants": len(router.ryw_grants),
        "router_routed_unmounted": router.routed_unmounted,
        "mounted_members": len(fleet.mounted_members),
        "publications": sum(
            len(m.standby.query_scn.history) for m in fleet.members
        ),
        "gaps_resolved": sum(
            m.standby.receiver.gaps_resolved for m in fleet.members
        ),
    }
    for target in sorted(router.routed_by_target):
        stats[f"routed_to_{target}"] = router.routed_by_target[target]
    return stats


# ----------------------------------------------------------------------
# cdc_backfill_storm
# ----------------------------------------------------------------------
class _CDCFeedMatchesStandby(Invariant):
    """After the feed drains, replaying every emitted change event must
    reconstruct exactly the standby's visible rows -- through the
    backfill chunks, the live certified cuts and any mid-cut resyncs."""

    name = "cdc_feed_matches_standby"

    def check(self, ctx: ChaosContext) -> InvariantResult:
        egress = ctx.extra["cdc_egress"]
        replica = ctx.extra["cdc_replica"]
        if not egress.drained:
            return self._result(
                False,
                f"egress never drained: {egress.emitted} emitted, "
                f"{egress.resolved} cuts resolved so far",
            )
        expected = sorted(ctx.deployment.standby.query(TABLE).rows)
        got = replica.rows(TABLE)
        if got != expected:
            return self._result(
                False,
                f"replayed feed diverges from the standby: "
                f"{len(got)} vs {len(expected)} rows",
            )
        return self._result(
            True,
            f"{len(got)} rows identical after {egress.emitted} events "
            f"({egress.backfill_rows} backfilled, {egress.resyncs} resyncs)",
        )


def attach_cdc(ctx: ChaosContext) -> None:
    egress = ctx.deployment.start_cdc(tables=[TABLE])
    replica = ReplaySubscriber()
    egress.subscribe(replica, name="replica")
    ctx.extra["cdc_egress"] = egress
    ctx.extra["cdc_replica"] = replica


def churn_with_truncate(scenario: Scenario, ctx: ChaosContext) -> None:
    deployment = ctx.deployment
    rowids = ctx.extra["rowids"]
    rng = random.Random(10_000 + scenario.bursts)
    next_id = LOAD_ROWS
    for burst in range(scenario.bursts):
        if burst == scenario.bursts // 2:
            # DDL mid-cut: abandon open windows, re-certify from zero
            deployment.primary.truncate_table(TABLE)
            rowids.clear()
        txn = deployment.primary.begin()
        for __ in range(4):
            rowids.append(deployment.primary.insert(
                txn, TABLE, (next_id, float(next_id), f"v{next_id % 5}"),
            ))
            next_id += 1
        for __ in range(scenario.rows_per_burst):
            rowid = rowids[rng.randrange(len(rowids))]
            deployment.primary.update(
                txn, TABLE, rowid, {"n1": float(rng.randrange(10_000))},
            )
        deployment.primary.commit(txn)
        deployment.run(BURST_GAP)


def drain_cdc(ctx: ChaosContext) -> None:
    ctx.deployment.catch_up(timeout=900.0)
    egress = ctx.extra["cdc_egress"]
    ctx.deployment.sched.run_until_condition(
        lambda: egress.drained, max_time=120.0
    )


def cdc_stats(ctx: ChaosContext) -> dict[str, int]:
    egress = ctx.extra["cdc_egress"]
    return {
        **pipeline_stats(ctx),
        "cdc_emitted": int(egress.emitted),
        "cdc_resolved": int(egress.resolved),
        "cdc_resyncs": int(egress.resyncs),
        "cdc_backfill_rows": int(egress.backfill_rows),
        "cdc_backfill_chunks": int(egress.backfill_chunks),
        "cdc_backfill_deduped": int(egress.backfill_deduped),
    }


# ----------------------------------------------------------------------
SCENARIOS: dict[str, Scenario] = {scenario.name: scenario for scenario in (
    Scenario("baseline", "control run: no faults injected"),
    Scenario(
        "shipping_outage",
        "redo transport crashes mid-workload and restarts: lag grows "
        "while queries keep answering at the stale QuerySCN, then the "
        "standby catches up with no loss",
        plan=lambda: FaultPlan().at(
            0.4, F.CrashActor("shipper-t", restart_after=0.8)
        ),
    ),
    Scenario(
        "fal_gap_storm",
        "repeated in-transit redo losses: every gap is detected at the "
        "receiver and FAL-healed from the primary's archived logs",
        plan=lambda: FaultPlan().at(0.2, F.Repeat(
            lambda: F.Drop("redo.ship", count=2),
            times=4, interval=0.3, backoff=1.2,
        )).at(0.5, F.Drop("redo.receive", count=1)),
    ),
    Scenario(
        "dup_reorder",
        "shipments duplicated, reordered and delayed in transit: "
        "redeliveries are discarded idempotently, overtaken batches "
        "FAL-heal, redo applies exactly once",
        plan=lambda: (
            FaultPlan()
            .at(0.3, F.Duplicate("redo.ship", count=3))
            .at(0.8, F.Reorder("redo.ship", count=4, overtake=0.03))
            .at(1.3, F.Delay("redo.ship", by=0.05, count=3))
        ),
    ),
    Scenario(
        "worker_crash_flush",
        "a recovery worker dies while cooperative flush drains a "
        "worklink (and the flush itself is stalled); the worker restarts "
        "and advancement completes",
        plan=lambda: (
            FaultPlan()
            .at(0.35, F.Stall("flush.worklink", count=12))
            .at(0.4, F.CrashActor(
                "standby-1-recovery-worker-1", restart_after=0.5
            ))
            .at(1.1, F.Stall("adg.apply_worker", count=30))
        ),
        rows_per_burst=20,
    ),
    Scenario(
        "publish_stall",
        "QuerySCN publication repeatedly held back at the quiesce "
        "boundary: the published sequence stays monotonic and leapfrogs "
        "forward once released",
        plan=lambda: FaultPlan().at(0.3, F.Repeat(
            lambda: F.Stall("adg.queryscn_publish", count=6),
            times=3, interval=0.4,
        )),
    ),
    Scenario(
        "restart_storm",
        "the standby instance bounces repeatedly under load (paper "
        "III-E): all DBIM-on-ADG state is volatile, yet scans at the "
        "QuerySCN stay exact after re-population",
        plan=lambda: FaultPlan().at(
            0.5, F.Repeat(lambda: F.RestartStandby(), times=3, interval=0.6)
        ),
        bursts=12,
    ),
    Scenario(
        "checkpoint_crash",
        "instant-restart checkpoints under fire: capture rounds are "
        "stalled and dropped mid-round while the standby bounces "
        "repeatedly -- partially checkpointed state must restore warm "
        "(or fall back cold) without ever serving a stale row",
        plan=lambda: (
            FaultPlan()
            # a crash window that keeps interrupting capture rounds...
            .at(0.3, F.Repeat(
                lambda: F.Stall("restart.checkpoint", count=3),
                times=4, interval=0.4,
            ))
            .at(0.45, F.Drop("restart.checkpoint", count=2))
            # ...while the instance bounces through them
            .at(0.5, F.Repeat(
                lambda: F.RestartStandby(), times=3, interval=0.6,
            ))
        ),
        bursts=12,
        setup=arm_checkpoints,
        stats=checkpoint_stats,
    ),
    Scenario(
        "rac_chaos",
        "SIRA standby cluster with interconnect chaos: delayed and "
        "duplicated invalidation-group messages plus a partition window "
        "between the master and its peer instance",
        plan=lambda: (
            FaultPlan()
            .at(0.3, F.Delay("rac.message", by=0.01, count=6))
            .at(0.7, F.Duplicate("rac.message", count=4))
            .at(1.2, F.Partition(between=(1, 2), duration=0.3))
        ),
        cluster_instances=2,
        service="standby",
    ),
    Scenario(
        "failover_mid_flush",
        "the primary dies while an invalidation worklink is mid-drain; "
        "terminal recovery finishes the flush, activation carries the "
        "IMCS into the new primary role",
        # hold the worklink as the transition starts, and add a failure-
        # detection delay to the role transition itself
        plan=lambda: (
            FaultPlan()
            .at(0.9, F.Stall("flush.worklink", count=15))
            .at(0.0, F.Delay("db.failover", by=0.05, count=1,
                             where=lambda s, e, c: e == "begin"))
        ),
        drive=drive_to_failover,
        # let the activated primary settle
        finish=lambda ctx: ctx.deployment.run(0.2),
        invariants=(
            _FailoverPreservedData(), QuerySCNMonotonic(), NoGapSkip(),
        ),
    ),
    Scenario(
        "standby_loss_mid_wave",
        "a reader-farm member dies mid client-wave: the router drains "
        "and rebinds its sessions, no session ever routes to the "
        "unmounted member, and every queued read-your-writes waiter "
        "admits on a qualifying member or expires with its deadline "
        "error",
        plan=reader_farm_plan,
        n_standbys=3,
        service="standby",
        setup=open_reader_farm,
        drive=drive_wave,
        finish=finish_wave,
        invariants=STANDARD + (_NoUnmountedRouting(), _RYWWaitersResolved()),
        stats=reader_farm_stats,
    ),
    Scenario(
        "cdc_backfill_storm",
        "a CDC subscriber attaches mid-workload: watermark windows are "
        "stalled and delayed, live emission parks repeatedly, a TRUNCATE "
        "lands mid-backfill and publication itself is held back -- the "
        "replayed feed must still equal the standby's table",
        plan=lambda: (
            FaultPlan()
            # stall the first watermark windows before they open...
            .at(0.05, F.Stall("cdc.backfill", count=4))
            # ...and delay a window close (widens the live-wins window)
            .at(0.3, F.Delay("cdc.backfill", by=0.05, count=1,
                             where=lambda s, e, c: e == "close"))
            # park subscriber delivery in repeated waves
            .at(0.4, F.Repeat(
                lambda: F.Stall("cdc.emit", count=4),
                times=3, interval=0.3,
            ))
            # and hold back the certified cuts themselves
            .at(0.9, F.Stall("adg.queryscn_publish", count=4))
        ),
        setup=attach_cdc,
        drive=churn_with_truncate,
        finish=drain_cdc,
        invariants=STANDARD + (_CDCFeedMatchesStandby(),),
        stats=cdc_stats,
    ),
)}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
