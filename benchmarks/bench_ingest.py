"""Ingest gauntlet: apply-side throughput of the columnar redo path.

Redo is columns from the statement on: the primary appends to a
struct-of-arrays ``RedoLog``, a shipment is ``log.batch(lo, hi)`` and the
``CVBatch`` stays columnar through distribution, mining, commit-table
insertion, chop and flush (DESIGN.md section 15) -- the only ingest path
there is.  This bench captures two ranges of a live primary's log and
pushes them through freshly built apply-side components, reporting
apply-side CVs/s stage by stage.  It is a layer report, not a
gate: the end-to-end watch on this layer is ``bench_e2e``'s
``ingest_firehose`` workload.

The same replay runs at two widths (``ARMS``): *wide* -- shipments of
2 048 records, 100 updates per transaction, what a catch-up after a
standby outage looks like -- and *live* -- 23 records per shipment, 1-12
statements per transaction, the shape ``bench_e2e`` counted on every one
of its workloads (DESIGN.md section 15, "Live widths").  Their ratio is
the isolated-vs-live gap: fixed per-chunk and per-transaction overhead
that only the narrow shape pays.

Two things are deliberately excluded from the timed region:

* the lifecycle tracer (disarmed after build): per-CV stamping would
  dilute the machinery being measured;
* the physical rowstore apply (version-chain walks that never vectorize):
  not part of the batched redo machinery.

The mining-width arm mines the front of those streams in chunks of 1, 7,
85 and 512 CVs (one chunk per shipment) through the production pass --
one walk in plain Python per chunk -- and through the numpy pass it
displaced (``tests/numpy_miner.py``), interleaved, best of
``MINE_BEST_OF``.  At the live width (7, what ``ingest_firehose``'s
worker chunks average) the plain pass must stay at or below
``LIVE_MINE_GATE`` times the numpy pass; 85 and 512 are reported
ungated, with the width from which the numpy pass is ahead.

A second test drives the same DML history through two *live* deployments
(tracer armed) built from the same seed and asserts the published
QuerySCN sequences are value-identical: the pipeline is deterministic
from its seed, so simulated visibility lag is a property of the history,
not of the run (compare ``BENCH_apply_lag.json`` from bench_fig11).
"""

from __future__ import annotations

import gc
import pathlib
import sys
import time

import pytest

from repro import obs
from repro.adg.apply import ApplyDistributor
from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db.deployment import Deployment, InMemoryService
from repro.db.schema_def import ColumnDef, TableDef
from repro.dbim_adg.commit_table import IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.flush import InvalidationFlushComponent
from repro.dbim_adg.journal import IMADGJournal
from repro.dbim_adg.mining import MiningComponent
from repro.redo.batch import CVChunk

from conftest import save_json, save_report

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.numpy_miner import NumpyMiningComponent  # noqa: E402  (the reference)

#: (arm, records per shipment, statements per transaction by ordinal).
ARMS = (
    ("wide", 2048, lambda t: 100),
    ("live", 23, lambda t: 1 + (t * 7) % 12),
)
BEST_OF = 3
#: Worklink nodes per drain call (the coordinator's default).
FLUSH_BATCH = 32

#: The mining-width arm: (CVs per chunk, the arm whose stream is cut).
MINE_WIDTHS = ((1, "live"), (7, "live"), (85, "wide"), (512, "wide"))
#: Records mined per width and repeat (the front of the stream).
MINE_RECORDS = 3_072
MINE_BEST_OF = 7
#: At the live width the plain-Python pass must take at most this share
#: of the numpy pass's time.
LIVE_WIDTH = 7
LIVE_MINE_GATE = 0.7

N_ROWS = 4_000
#: Updates captured per arm.
N_UPDATES = 20_000


@pytest.fixture(scope="module")
def firehose():
    """One DML firehose per arm captured on a live deployment.

    The deployment itself drains the streams end-to-end -- its metrics
    registry must show the batch histograms afterwards -- and each arm's
    range of its redo log is then replayed through fresh components by
    the gauntlet.
    """
    config = SystemConfig(
        imcs=IMCSConfig(
            imcu_target_rows=1024,
            population_workers=2,
            repopulate_invalid_fraction=0.02,
            repopulate_min_interval=0.1,
        ),
        apply=ApplyConfig(n_workers=4),
        seed=7,
    )
    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        deployment = Deployment.build(config=config)
        # Disarm the per-CV lifecycle stamps (counters/histograms stay):
        # the tracer tax would dilute the machinery this bench measures.
        registry.tracer = None
        deployment.create_table(
            TableDef(
                "T",
                tuple(
                    [ColumnDef.number("id", nullable=False)]
                    + [ColumnDef.number(f"n{i}") for i in range(4)]
                ),
                rows_per_block=64,
                indexes=("id",),
            )
        )
        primary = deployment.primary
        log = primary.redo_logs[0]
        rowids = []
        txn = primary.begin()
        for i in range(N_ROWS):
            rowids.append(
                primary.insert(txn, "T", tuple([i] + [float(i)] * 4))
            )
        primary.commit(txn)
        deployment.catch_up()
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.catch_up()
        streams = {}
        for arm, __, statements in ARMS:
            start = 0 if not streams else len(log)
            done = t = 0
            while done < N_UPDATES:
                txn = primary.begin()
                for j in range(statements(t)):
                    row = rowids[(t * 31 + j * 7) % len(rowids)]
                    primary.update(txn, "T", row, {"n1": float(j)})
                primary.commit(txn)
                done += statements(t)
                t += 1
            deployment.catch_up()
            streams[arm] = (start, len(log))
    return deployment, registry, log, streams


def drain_once(deployment, log, span, shipment_records) -> dict[str, float]:
    """Push the log records at positions ``span`` through fresh apply-side
    components in shipments of ``shipment_records``, timing each stage:
    slice, distribute, mine, chop, flush."""
    journal = IMADGJournal()
    commit_table = IMADGCommitTable(4)
    miner = MiningComponent(
        journal, commit_table, DDLInformationTable(), deployment.standby.imcs
    )
    flush = InvalidationFlushComponent(
        journal, commit_table, DDLInformationTable(), deployment.standby.imcs
    )
    distributor = ApplyDistributor(4, deployment.standby.applier)
    times: dict[str, float] = {}

    t0 = time.perf_counter()
    lo, hi = span
    batches = [
        log.batch(i, min(i + shipment_records, hi))
        for i in range(lo, hi, shipment_records)
    ]
    times["slice"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    distributor.distribute(batches)
    times["distribute"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for worker, queue in enumerate(distributor.queues):
        for chunk in queue:
            miner.sniff_chunk(chunk, worker)
    times["mine"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    flush.begin_advance(10**9)
    times["chop"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    while flush.coordinator_flush(FLUSH_BATCH):
        pass
    times["flush"] = time.perf_counter() - t0
    assert journal.record_count == 0, "flush left journal residue"
    return times


def mine_in_chunks(deployment, log, span, width, miner_cls) -> float:
    """Mine the front of ``span`` in shipments of ``width`` records, each
    shipment one worker's chunk, into fresh components: wall seconds.
    The batches are sliced anew, so each pass derives what it reads of
    them inside the timed region.  The numpy pass's list-to-array
    conversion is made before the timer, where ``log.batch`` made those
    arrays while batches were shipped as arrays."""
    lo = span[0]
    hi = min(span[1], lo + MINE_RECORDS)
    chunks = [
        CVChunk(batch, list(range(batch.n_cvs)))
        for batch in (
            log.batch(i, min(i + width, hi)) for i in range(lo, hi, width)
        )
    ]
    miner = miner_cls(
        IMADGJournal(),
        IMADGCommitTable(4),
        DDLInformationTable(),
        deployment.standby.imcs,
    )
    if miner_cls is NumpyMiningComponent:
        for chunk in chunks:
            miner.load(chunk.batch)
    # a cyclic collection's pause would land in whichever pass trips it
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for chunk in chunks:
            miner.sniff_chunk(chunk, 0)
        return time.perf_counter() - t0
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def mining_widths(firehose):
    """The plain-Python pass against the numpy pass at each of
    ``MINE_WIDTHS``, interleaved (the order alternates per repeat), best
    of ``MINE_BEST_OF``."""
    deployment, __, log, streams = firehose
    results = {}
    for width, arm in MINE_WIDTHS:
        span = streams[arm]
        hi = min(span[1], span[0] + MINE_RECORDS)
        n_chunks = len(range(span[0], hi, width))
        n_cvs = log.batch(span[0], hi).n_cvs
        passes = [MiningComponent, NumpyMiningComponent]
        best = {miner_cls: float("inf") for miner_cls in passes}
        for repeat in range(MINE_BEST_OF):
            for miner_cls in passes[:: 1 if repeat % 2 else -1]:
                best[miner_cls] = min(
                    best[miner_cls],
                    mine_in_chunks(deployment, log, span, width, miner_cls),
                )
        plain, numpy = best[MiningComponent], best[NumpyMiningComponent]
        results[str(width)] = {
            "stream": arm,
            "chunks": n_chunks,
            "cvs_per_chunk": round(n_cvs / n_chunks, 1),
            "plain_us_per_chunk": round(plain / n_chunks * 1e6, 2),
            "numpy_us_per_chunk": round(numpy / n_chunks * 1e6, 2),
            "plain_over_numpy": round(plain / numpy, 3),
        }
    return results


def test_ingest_gauntlet(firehose, mining_widths, benchmark):
    deployment, registry, log, streams = firehose
    results = {}
    lines = []
    for arm, shipment_records, __ in ARMS:
        span = streams[arm]
        n_records = span[1] - span[0]
        total_cvs = log.batch(*span).n_cvs
        assert total_cvs > 20_000, "firehose too small to be meaningful"
        total, times = min(
            (
                (sum(times.values()), times)
                for times in (
                    drain_once(deployment, log, span, shipment_records)
                    for __ in range(BEST_OF)
                )
            ),
            key=lambda run: run[0],
        )
        results[arm] = r = {
            "shipment_records": shipment_records,
            "total_records": n_records,
            "total_cvs": total_cvs,
            "stage_ms": {k: round(v * 1e3, 3) for k, v in times.items()},
            "total_ms": round(total * 1e3, 3),
            "cvs_per_s": round(total_cvs / total),
        }
        stages = "  ".join(f"{k}={v:.1f}ms" for k, v in r["stage_ms"].items())
        lines += [
            f"  {arm:<5} {r['cvs_per_s']:>9,} cvs/s  {n_records} records / "
            f"{total_cvs} CVs in shipments of {shipment_records}",
            f"        ({r['total_ms']:.1f}ms: {stages})",
        ]
    ratio = results["wide"]["cvs_per_s"] / results["live"]["cvs_per_s"]
    ahead = [
        int(width)
        for width, r in mining_widths.items()
        if r["plain_over_numpy"] > 1
    ]
    crossover = (
        f"the numpy pass is ahead from {ahead[0]} CVs per chunk"
        if ahead
        else "the numpy pass is ahead at no measured width"
    )
    mine_lines = [
        f"  {width:>4} CVs/chunk ({r['stream']:<4} stream, "
        f"{r['cvs_per_chunk']:>5} actual): plain "
        f"{r['plain_us_per_chunk']:>8.2f} us  numpy "
        f"{r['numpy_us_per_chunk']:>8.2f} us per chunk  "
        f"= {r['plain_over_numpy']:.2f}x"
        for width, r in mining_widths.items()
    ]

    # the live deployment's batch-size distributions
    snapshot = registry.snapshot()
    apply_hist = snapshot.get("adg.apply.batch_cvs")
    mine_hist = snapshot.get("dbim.mine.batch_cvs")
    assert apply_hist is not None and apply_hist["count"] > 0, (
        "no columnar batches crossed the apply distributor"
    )
    assert mine_hist is not None and mine_hist["count"] > 0, (
        "no columnar chunks were mined"
    )

    save_json("ingest", {
        "bench": "ingest_gauntlet",
        "best_of": BEST_OF,
        "flush_batch": FLUSH_BATCH,
        "results": results,
        "wide_over_live": round(ratio, 2),
        "mining_widths": {
            "best_of": MINE_BEST_OF,
            "records": MINE_RECORDS,
            "live_width_gate": LIVE_MINE_GATE,
            "crossover": ahead[0] if ahead else None,
            "widths": mining_widths,
        },
        "live_batch_histograms": {
            "adg.apply.batch_cvs": apply_hist,
            "dbim.mine.batch_cvs": mine_hist,
        },
    })
    save_report("ingest_gauntlet", "\n".join([
        "Ingest gauntlet: apply-side CVs/s of the columnar redo path, "
        f"best of {BEST_OF}",
        *lines,
        f"  wide / live = {ratio:.2f}x: the isolated-vs-live gap is width",
        "Mining width: one plain-Python walk per chunk against the numpy "
        f"pass, best of {MINE_BEST_OF}",
        *mine_lines,
        f"  gate: <= {LIVE_MINE_GATE}x at {LIVE_WIDTH} CVs per chunk; "
        f"{crossover}",
    ]))

    # wall-clock: slicing one wide shipment out of the log
    wide_lo = streams["wide"][0]
    benchmark(lambda: log.batch(wide_lo, wide_lo + ARMS[0][1]))


def test_mining_pass_gate_at_the_live_width(mining_widths):
    """The live width is gated; 85 and 512 are reported only."""
    ratio = mining_widths[str(LIVE_WIDTH)]["plain_over_numpy"]
    assert ratio <= LIVE_MINE_GATE, (
        f"plain-Python mining pass at {ratio:.2f}x the numpy pass at "
        f"{LIVE_WIDTH} CVs per chunk (gate {LIVE_MINE_GATE}x)"
    )


def _live_run():
    """A small live deployment (tracer armed) driven through a fixed DML
    history; returns (query_scn_history, visibility_lag_summary)."""
    config = SystemConfig(
        imcs=IMCSConfig(
            imcu_target_rows=256,
            population_workers=1,
            repopulate_invalid_fraction=0.05,
            repopulate_min_interval=0.05,
        ),
        apply=ApplyConfig(n_workers=3),
        seed=11,
    )
    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        deployment = Deployment.build(config=config)
        deployment.create_table(
            TableDef(
                "T",
                (
                    ColumnDef.number("id", nullable=False),
                    ColumnDef.number("n1"),
                ),
                rows_per_block=32,
                indexes=("id",),
            )
        )
        primary = deployment.primary
        rowids = []
        txn = primary.begin()
        for i in range(500):
            rowids.append(primary.insert(txn, "T", (i, float(i))))
        primary.commit(txn)
        deployment.catch_up()
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.catch_up()
        for t in range(50):
            txn = primary.begin()
            for j in range(10):
                primary.update(
                    txn, "T", rowids[(t * 13 + j) % len(rowids)],
                    {"n1": float(t + j)},
                )
            primary.commit(txn)
            deployment.run(0.02)
        deployment.catch_up()
        history = list(deployment.standby.query_scn.history)
        visibility = registry.snapshot().get("lifecycle.visibility_lag")
    return history, visibility


def test_ingest_queryscn_history_deterministic():
    """Same seed, same history: two live runs publish value-identical
    QuerySCN sequences (and therefore identical simulated visibility
    lag) -- batching changes how much an advancement costs, never when
    it happens."""
    history_a, vis_a = _live_run()
    history_b, vis_b = _live_run()
    assert history_a == history_b, (
        "published QuerySCN sequences diverged between same-seed runs"
    )
    assert vis_a is not None and vis_a["count"] > 0
    assert vis_a == vis_b
