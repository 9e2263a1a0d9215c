"""Reader farm: a session wave across N standbys, lag-aware vs round-robin.

The paper's capacity-expansion deployment (Fig. 2) scales analytics by
adding standby databases behind one primary.  This bench drives the same
seeded client wave through a 4-member deployment twice -- once with the
``FleetRouter``'s lag- and load-aware routing, once with a blind
round-robin baseline (defined here: the router has one policy) -- with
one member deliberately degraded (slow apply *and* slow scan workers,
the straggler every real farm has).

Lag-aware routing must beat round-robin on tail connect wait: the
straggler accumulates lag and load, the score steers sessions away, and
the admission queue stays short.  Round-robin keeps feeding the
straggler, its slow scans pin sessions open, and the bounded session
pool backs up.  The assertion at the bottom is the CI perf gate.

Output: ``results/reader_farm.txt`` (rendered table) and
``results/BENCH_reader_farm.json`` (per-tier latency, wait percentiles
and routing-decision counts; uploaded as a CI artifact).
"""

from __future__ import annotations

import itertools

from repro import obs
from repro.db import ColumnDef, Deployment, InMemoryService, Service, TableDef
from repro.fleet import FleetRouter, SessionWave, WaveConfig
from repro.obs.render import render_table

from conftest import bench_system_config, save_json, save_report

N_STANDBYS = 4
SLOW_MEMBER = "standby-4"
N_ROWS = 2_000
WAVE = dict(
    n_clients=240,
    arrival_rate=600.0,
    writer_fraction=0.3,
    connect_timeout=5.0,
    service_name="reports",
    seed=4242,
)


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def build_fleet() -> tuple[Deployment, list]:
    fleet = Deployment.build(
        config=bench_system_config(), n_standbys=N_STANDBYS
    )
    fleet.create_table(TableDef(
        "T",
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("n1"),
            ColumnDef.varchar("c1"),
        ),
        rows_per_block=50,
        indexes=("id",),
    ))
    rowids = []
    for base in range(0, N_ROWS, 500):
        txn = fleet.primary.begin()
        for i in range(base, base + 500):
            rowids.append(
                fleet.primary.insert(txn, "T", (i, float(i % 100), f"v{i % 7}"))
            )
        fleet.primary.commit(txn)
    fleet.enable_inmemory("T", service=InMemoryService.STANDBY)
    fleet.catch_up()
    return fleet, rowids


def degrade(fleet: Deployment) -> None:
    """Make one member the farm's straggler: apply 12x slower (real,
    growing published-QuerySCN lag) and scans ~100ms a piece instead of
    microseconds (a CPU-starved node; sessions pin it long enough that
    blind routing backs the bounded session pool up)."""
    slow = fleet.member(SLOW_MEMBER)
    for worker in slow.standby.workers:
        worker.speed = 12.0
    for worker in slow.query_service.pool.workers:
        worker.speed = 25_000.0


class RoundRobinRouter(FleetRouter):
    """The baseline the gate compares against: cycle the members,
    blind to lag and load (the wave uses no affinity keys)."""

    def __init__(self, fleet, **kwargs) -> None:
        super().__init__(fleet, **kwargs)
        self._cycle = itertools.cycle(fleet.members)

    def select_member(self, min_scn=0, affinity_key=None):
        candidates = self._candidates(min_scn)
        for member in itertools.islice(self._cycle, len(self.fleet.members)):
            if member in candidates:
                return member
        return None


ROUTERS = {"round_robin": RoundRobinRouter, "lag_aware": FleetRouter}


def run_wave(policy: str) -> dict:
    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        fleet, rowids = build_fleet()
        fleet.start_query_service(n_workers=2, enable_cache=False)
        degrade(fleet)
        router = ROUTERS[policy](fleet, max_sessions=24)
        router.registry.create("reports", Service.PRIMARY_AND_STANDBY)
        wave = SessionWave(
            fleet, router, WaveConfig(**WAVE), rowids=rowids
        )
        fleet.sched.add_actor(wave)
        finished = fleet.sched.run_until_condition(
            lambda: wave.done, max_time=600.0
        )
        assert finished, f"{policy}: wave did not finish"

    records = wave.finished_records()
    waits = [r.wait for r in records if r.wait is not None]
    latencies = [r.latency for r in records if r.latency is not None]
    tiers: dict[str, list[float]] = {}
    for record in records:
        if record.tier is not None and record.latency is not None:
            tiers.setdefault(record.tier, []).append(record.latency)
    return {
        "policy": policy,
        "clients": len(records),
        "timed_out": sum(1 for r in records if r.timed_out),
        "lost": sum(1 for r in records if r.lost),
        "resubmits": sum(r.resubmits for r in records),
        "wait_p50_ms": percentile(waits, 0.50) * 1e3,
        "wait_p95_ms": percentile(waits, 0.95) * 1e3,
        "wait_p99_ms": percentile(waits, 0.99) * 1e3,
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "per_tier": {
            tier: {
                "sessions": len(values),
                "latency_p50_ms": percentile(values, 0.50) * 1e3,
                "latency_p99_ms": percentile(values, 0.99) * 1e3,
            }
            for tier, values in sorted(tiers.items())
        },
        "decisions": {
            family: dict(per_service)
            for family, per_service in sorted(router.decisions.items())
        },
        "routed_by_target": dict(sorted(router.routed_by_target.items())),
        "ryw_grants": len(router.ryw_grants),
        "ryw_violations": router.ryw_violations,
        "routed_unmounted": router.routed_unmounted,
    }


def test_reader_farm_lag_aware_beats_round_robin():
    results = {policy: run_wave(policy) for policy in ROUTERS}

    rows = []
    for policy, r in results.items():
        rows.append([
            policy, r["clients"], r["timed_out"],
            r["wait_p50_ms"], r["wait_p95_ms"], r["wait_p99_ms"],
            r["latency_p99_ms"],
            r["routed_by_target"].get(f"standby:{SLOW_MEMBER}", 0),
        ])
    save_report(
        "reader_farm",
        render_table(
            ["policy", "clients", "timeouts", "wait p50 (ms)",
             "wait p95 (ms)", "wait p99 (ms)", "latency p99 (ms)",
             "sessions on straggler"],
            rows,
            title=f"reader farm: {WAVE['n_clients']} clients over "
                  f"{N_STANDBYS} standbys, {SLOW_MEMBER} degraded",
        ),
    )
    save_json("reader_farm", {
        "n_standbys": N_STANDBYS,
        "slow_member": SLOW_MEMBER,
        "wave": WAVE,
        "results": results,
    })

    for r in results.values():
        # correctness riding along with the perf gate
        assert r["ryw_violations"] == 0
        assert r["routed_unmounted"] == 0
        assert r["lost"] == 0
    # the perf gate: lag-aware must cut the tail connect wait
    assert (
        results["lag_aware"]["wait_p99_ms"]
        < results["round_robin"]["wait_p99_ms"]
    ), (
        f"lag-aware p99 wait {results['lag_aware']['wait_p99_ms']:.2f}ms "
        f"not below round-robin "
        f"{results['round_robin']['wait_p99_ms']:.2f}ms"
    )
    # and it should visibly steer load off the straggler
    straggler = f"standby:{SLOW_MEMBER}"
    assert (
        results["lag_aware"]["routed_by_target"].get(straggler, 0)
        <= results["round_robin"]["routed_by_target"].get(straggler, 0)
    )
