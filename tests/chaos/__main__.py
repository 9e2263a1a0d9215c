"""CLI: run chaos scenarios and verify their determinism.

    python -m tests.chaos --scenario all --seed 7
    python -m tests.chaos --scenario shipping_outage --seed 3 --once
    python -m tests.chaos --scenario baseline --quiet \\
        --json benchmarks/results/BENCH_obs_snapshot.json

Run from the repository root with ``PYTHONPATH=src``.  Each selected
scenario runs **twice** with the same seed and the two rendered reports
are compared byte for byte; any divergence (or any failed invariant)
makes the exit status non-zero.  ``--once`` skips the replay check for
quick smoke runs.  ``--json`` writes the metrics snapshot of the (first)
run of a single scenario.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from tests.chaos.harness import run_scenario
from tests.chaos.scenarios import SCENARIOS, get_scenario


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.chaos",
        description="deterministic fault-injection scenarios",
    )
    parser.add_argument(
        "--scenario", default="all",
        help="scenario name or 'all' (known: %s)" % ", ".join(
            sorted(SCENARIOS)
        ),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--once", action="store_true",
        help="run each scenario once (skip the determinism replay)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="print verdict lines only, not full reports",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the run's metrics snapshot as JSON to PATH "
        "(one scenario only)",
    )
    args = parser.parse_args(argv)

    if args.scenario == "all":
        if args.json:
            parser.error("--json takes a single --scenario, not 'all'")
        names = sorted(SCENARIOS)
    else:
        names = [args.scenario]

    failures = 0
    for name in names:
        try:
            scenario = get_scenario(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        report = run_scenario(scenario, seed=args.seed)
        text = report.to_text()
        if not args.quiet:
            print(text)
        if args.json:
            path = pathlib.Path(args.json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(report.metrics.to_json() + "\n")
            print(f"[snapshot saved to {path}]")
        deterministic = True
        if not args.once:
            replay = run_scenario(scenario, seed=args.seed)
            deterministic = replay.to_text() == text
        ok = report.passed and deterministic
        failures += 0 if ok else 1
        print(
            f"{name}: {'PASS' if report.passed else 'FAIL'}"
            + (
                ""
                if args.once
                else (
                    ", replay identical"
                    if deterministic
                    else ", REPLAY DIVERGED"
                )
            )
            + f" ({report.faults_fired} fault events, "
            f"finished at t={report.finished_at:.3f})"
        )
    print(
        f"\n{len(names) - failures}/{len(names)} scenarios passed "
        f"(seed {args.seed})"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
