"""Shared machinery for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper's
evaluation section (see DESIGN.md section 5 for the index).  Scenario
simulations run once per module in a session-scoped fixture; the
``benchmark`` fixture then times a *representative live operation* (an
actual scan through the respective engine) so `pytest --benchmark-only`
also reports genuine wall-clock numbers.

Every experiment writes its rendered table/figure to
``benchmarks/results/<name>.txt`` and prints it, so the paper-shaped
output survives in CI logs and in the repository.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import obs
from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db.deployment import Deployment, InMemoryService
from repro.workload.oltap import OLTAPConfig, OLTAPWorkload

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_report(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def save_json(name: str, payload: dict) -> pathlib.Path:
    """Machine-readable benchmark output: ``benchmarks/results/BENCH_<name>.json``.

    CI uploads these as artifacts so perf regressions are diffable across
    runs without scraping the rendered tables.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[saved to {path}]")
    return path


def bench_system_config(**overrides) -> SystemConfig:
    """Scaled-down configuration shared by all benchmark scenarios."""
    config = SystemConfig(
        imcs=IMCSConfig(
            imcu_target_rows=1024,
            population_workers=2,
            repopulate_invalid_fraction=0.02,
            repopulate_min_interval=0.1,
        ),
        apply=ApplyConfig(n_workers=4),
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def bench_oltap_config(**overrides) -> OLTAPConfig:
    """The paper's workload shape at laptop scale.

    Paper: 6M rows, 4000 ops/s, 1 hour.  Here: 6000 rows at 600 ops/s for
    4 simulated seconds.  The op rate is scaled *with* the table size so
    the churn ratio (updated rows per second / table rows) stays within
    an order of magnitude of the paper's -- that ratio determines how much SMU
    fallback each scan pays, which is what separates Fig. 9 from Fig. 10.
    Absolute latencies scale with table size (see EXPERIMENTS.md).
    """
    config = OLTAPConfig(
        n_rows=6_000,
        n_number_columns=50,
        n_varchar_columns=50,
        rows_per_block=50,
        target_ops_per_sec=600.0,
        duration=4.0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def run_scenario(
    oltap_config: OLTAPConfig,
    service: InMemoryService | None,
    scan_target: str = "standby",
    dbim_on_adg: bool = True,
    system_config: SystemConfig | None = None,
) -> tuple[Deployment, OLTAPWorkload]:
    """Set up + run one workload scenario to completion.

    The whole run happens under a collecting metrics registry (reachable
    afterwards as ``deployment.obs``, lifecycle tracer attached), so
    benches can read pipeline instruments next to their own bookkeeping
    and embed ``deployment.obs.snapshot()`` in their JSON output.
    """
    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        deployment = Deployment.build(
            config=system_config or bench_system_config(),
            dbim_on_adg=dbim_on_adg,
        )
        workload = OLTAPWorkload(deployment, oltap_config)
        workload.setup(service=service)
        workload.start(scan_target=scan_target)
        workload.run()
        workload.stop()
        deployment.catch_up()
    return deployment, workload


def summary_rows(label: str, series) -> list:
    """One row of the Fig. 9/10-style tables, in milliseconds."""
    stats = series.stats()
    return [
        label,
        stats["count"],
        stats["p50"] * 1e3,
        stats["mean"] * 1e3,
        stats["p95"] * 1e3,
    ]


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
