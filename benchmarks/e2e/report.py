"""Roll the repeats of one run up into the metrics ``BENCHMARK.json`` names.

End-to-end metrics come from the untraced repeats, per-layer metrics from
the traced ones.  Time-based values are medians over repeats (query
latencies are pooled first); sim-clock values and counts are taken from
the first repeat after checking that every repeat agrees bit for bit.
"""

from __future__ import annotations

import json
import pathlib
import resource
from statistics import median

from . import trace
from .harness import Repeat
from .loadgen import FactTable, WideTable
from .stats import highest_supported_percentile, percentile

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: layers that own spans, in pipeline order (sim.scheduler is reported as
#: residue, see per_layer)
SPAN_LAYERS = (
    "db.primary", "redo.shipping", "adg.merger", "adg.apply",
    "dbim_adg.mining", "dbim_adg.flush", "adg.coordinator",
    "imcs.population", "imcs.scan", "rowstore", "workload",
)
QUERY_KINDS = WideTable.query_kinds + FactTable.query_kinds
#: what marks a metric's name as measured on this machine (calibrated
#: time, or memory); every other metric is sim-clock or a count and must
#: repeat exactly between runs of the same code and seed
MEASURED_MARKS = ("cal_", "busy", "residue", "overhead", "setup_s", "peak_rss")


def is_measured(metric: str) -> bool:
    return any(mark in metric for mark in MEASURED_MARKS)


def load_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def disagreements(repeats: list[Repeat]) -> list[str]:
    """Sim-clock metrics and counts that differ between repeats of one
    run (same seed, so there must be none)."""
    first = repeats[0]
    differing = []
    for other in repeats[1:]:
        for name, mine, theirs in (
            ("exact", first.exact, other.exact),
            ("counts", first.counts, other.counts),
        ):
            for key in mine:
                if mine[key] != theirs.get(key):
                    differing.append(
                        f"{name}.{key}: {mine[key]!r} != {theirs.get(key)!r}"
                    )
    return differing


def verdict(repeats: list[Repeat]) -> tuple[int, int]:
    """``(attempted, failed)``: DML ops + queries + invariant checks, and
    golden-invariant mismatches plus repeat-to-repeat disagreements."""
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats) + len(disagreements(repeats))
    return attempted, failed


def steady(repeats: list[Repeat], *buckets: str) -> list[float]:
    """Calibrated seconds of every timed entry of ``buckets``, each the
    median over the repeats (which do identical work entry by entry)."""
    values = []
    for bucket in buckets:
        columns = [r.cal_s.get(bucket, []) for r in repeats]
        values += [median(column) for column in zip(*columns)]
    return values


def end_to_end(repeats: list[Repeat]) -> dict[str, float]:
    untraced = [r for r in repeats if not r.traced]
    exact = untraced[0].exact
    query_rounds = steady(untraced, "query", "probe_query")
    latencies_ms = [
        1e3 * seconds / exact["queries_per_round"] for seconds in query_rounds
    ]
    return {
        "dml_ops_per_cal_s": (
            exact["dml_ops"] / sum(steady(untraced, "dml", "probe_dml"))
        ),
        "query_cal_ms_p50": percentile(latencies_ms, 50),
        "query_cal_ms_p90": percentile(latencies_ms, 90),
        "scan_rows_per_cal_s": exact["scan_rows"] / sum(query_rounds),
        "populate_rows_per_cal_s": (
            exact["rows_populated_at_setup"]
            / sum(steady(untraced, "populate", "populate_again"))
        ),
        "visibility_lag_sim_ms_p50": exact["visibility_lag_sim_ms_p50"],
        "visibility_lag_sim_ms_p90": exact["visibility_lag_sim_ms_p90"],
        "redo_gap_scns_p90": exact["redo_gap_scns_p90"],
        "imcs_bytes_per_row": exact["imcs_bytes_per_row"],
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "setup_s": sum(steady(untraced, "load", "catch_up", "populate")),
    }


def sample_notes(repeats: list[Repeat]) -> dict[str, object]:
    """What the numbers rest on, printed beside them."""
    untraced = [r for r in repeats if not r.traced]
    first = untraced[0]
    n_rounds = len(steady(untraced, "query", "probe_query"))

    def wall(*buckets: str) -> float:
        return median(
            sum(r.wall_s.get(b, 0.0) for b in buckets) for r in untraced
        )

    checked = set().union(*(r.checked for r in repeats))
    return {
        "repeats": len(untraced),
        "invariant_points_checked_mid_run": len(checked),
        "invariant_distinct_query_scns": len({scn for _, _, scn in checked}),
        "query_latency_samples": n_rounds,
        "query_highest_supported_percentile": highest_supported_percentile(
            n_rounds
        ),
        "lag_samples": first.exact["commits"],
        "redo_gap_samples": first.exact["redo_gap_samples"],
        "kernel_share_of_timed_cpu": median(
            r.kernel_share for r in untraced
        ),
        "wall_s_setup": wall("load", "catch_up", "populate"),
        "wall_s_dml": wall("dml", "probe_dml"),
        "wall_s_query": wall("query", "probe_query"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: per-layer rows that are a counter delta copied as is
COUNT_ROWS = (
    "db.primary.ops", "db.primary.redo_records_generated",
    "redo.shipping.records_shipped",
    "adg.merger.records_merged",
    "adg.apply.cvs_applied", "adg.apply.apply_stalls",
    "adg.apply.sniff_retries",
    "dbim_adg.mining.data_records_mined", "dbim_adg.mining.latch_misses",
    "dbim_adg.flush.nodes_flushed", "dbim_adg.flush.groups_created",
    "dbim_adg.journal.anchors_created", "dbim_adg.journal.peak_occupancy",
    "dbim_adg.commit_table.inserts", "dbim_adg.commit_table.peak_occupancy",
    "adg.coordinator.advancements", "adg.coordinator.publications",
    "adg.coordinator.quiesce_wait_retries",
    "imcs.population.populations", "imcs.population.repopulations",
    "imcs.population.rows_populated", "imcs.population.quiesce_retries",
    "imcs.scan.queries", "imcs.scan.imcs_rows", "imcs.scan.imcus_unusable",
    "rowstore.versions_pruned",
)


def layer_rows(repeat: Repeat) -> dict[str, float]:
    """The per-layer table of one traced repeat, flattened to
    ``<layer>.<metric>`` names."""
    spans = repeat.spans
    timed_s = trace.root_s(spans)
    table = trace.layer_table(spans)
    counts = repeat.counts
    rows: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        row = table.get(layer, {"busy_s": 0.0, "calls": 0})
        rows[f"{layer}.busy_s"] = row["busy_s"]
        rows[f"{layer}.busy_share"] = _ratio(row["busy_s"], timed_s)
        rows[f"{layer}.calls"] = row["calls"]
    # the scheduler's self time is what no layer's span covers
    residue_s = table.get("sim.scheduler", {"busy_s": 0.0})["busy_s"]
    rows["sim.scheduler.residue_s"] = residue_s
    rows["sim.scheduler.residue_share"] = _ratio(residue_s, timed_s)
    rows["sim.scheduler.dispatches"] = sum(
        1 for s in spans
        if s[trace.PARENT] >= 0
        and spans[s[trace.PARENT]][trace.NAME] == "sim.scheduler:run"
    )
    rows.update({name: counts[name] for name in COUNT_ROWS})

    def total_s(*names: str) -> float:
        return sum(trace.durations(spans, *names))

    batches = len(trace.durations(spans, "redo.shipping:deliver"))
    by_kind: dict[str, list[float]] = {kind: [] for kind in QUERY_KINDS}
    for span in spans:
        if trace.layer_of(span[trace.NAME]) == "imcs.scan":
            # its parent is the client's ``workload:query.<kind>`` span
            kind = spans[span[trace.PARENT]][trace.NAME].rpartition(".")[2]
            by_kind[kind].append(span[trace.CAL_S] * 1e3)
    rows.update({
        "db.primary.busy_s_per_kop": _ratio(
            rows["db.primary.busy_s"] * 1000.0, counts["db.primary.ops"]
        ),
        "redo.shipping.batches": batches,
        "redo.shipping.records_per_batch": _ratio(
            counts["redo.shipping.records_shipped"], batches
        ),
        "adg.apply.cvs_per_busy_s": _ratio(
            counts["adg.apply.cvs_applied"], rows["adg.apply.busy_s"]
        ),
        "dbim_adg.flush.chop_busy_s": total_s("dbim_adg.flush:begin_advance"),
        "dbim_adg.flush.flush_busy_s": total_s(
            "dbim_adg.flush:coordinator_flush", "dbim_adg.flush:worker_flush"
        ),
        "dbim_adg.flush.worker_flush_ratio": _ratio(
            counts["dbim_adg.flush.nodes_flushed_by_workers"],
            counts["dbim_adg.flush.nodes_flushed"],
        ),
        "adg.coordinator.publish_busy_s": total_s("adg.coordinator:publish"),
        "imcs.population.rows_per_busy_s": _ratio(
            counts["imcs.population.rows_populated"],
            rows["imcs.population.busy_s"],
        ),
        "imcs.population.rows_repopulated_per_row_invalidated": _ratio(
            counts["imcs.population.rows_populated"],
            counts["imcs.rows_invalidated"],
        ),
        "imcs.scan.fallback_rows_per_query": _ratio(
            counts["imcs.scan.fallback_rows"], counts["imcs.scan.queries"]
        ),
        "imcs.scan.imcus_pruned_ratio": _ratio(
            counts["imcs.scan.imcus_pruned"],
            counts["imcs.scan.imcus_pruned"] + counts["imcs.scan.imcus_used"],
        ),
        **{
            f"imcs.scan.busy_ms_p50.{kind}": (
                percentile(busy_ms, 50) if busy_ms else 0.0
            )
            for kind, busy_ms in by_kind.items()
        },
        "workload.retries": repeat.exact["workload.retries"],
        "workload.schedule_lag_sim_ms_max": repeat.exact[
            "workload.schedule_lag_sim_ms_max"
        ],
    })
    return rows


def per_layer(repeats: list[Repeat]) -> dict[str, float]:
    traced = [r for r in repeats if r.traced]
    untraced = [r for r in repeats if not r.traced]
    tables = [r.layers for r in traced]
    rows = {key: median(t[key] for t in tables) for key in tables[0]}

    def main_stages_s(group: list[Repeat]) -> float:
        return sum(steady(group, "dml", "query"))

    rows["obs.trace_overhead_pct"] = 100.0 * (
        main_stages_s(traced) / main_stages_s(untraced) - 1.0
    )
    return rows
