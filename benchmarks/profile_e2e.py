"""cProfile over bench_e2e's timed main-stage regions, and nothing else.

Run from the root of a checkout (no ``PYTHONPATH`` needed):

    python3 benchmarks/profile_e2e.py --workload oltap_mixed --region query
    python3 benchmarks/profile_e2e.py --workload ingest_firehose --region dml --quick

``--region dml`` profiles the main stages' timed sim steps and drains,
``--region query`` their query rounds; set-up and the probe stages stay
unprofiled.  The profiler is switched on and off by wrapping
``benchmarks.e2e.calibrate.Meter.timed`` from outside, so the benchmark's
own files are used as they are.  One untraced ``bench_e2e`` invocation runs
in this process (its table is printed as usual, inflated by the profiler);
then come the top functions by self time and the self time rolled up per
``src/repro`` file, each with its share of the region's profiled total.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import pathlib
import pstats
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import calibrate, cli  # noqa: E402
from benchmarks.e2e.workloads import BY_NAME  # noqa: E402

SRC = str(ROOT / "src") + "/"
#: functions listed by self time
TOP = 30


def profiled_run(
    workload: str, region: str, argv: list[str]
) -> tuple[int, pstats.Stats]:
    """One bench_e2e invocation with ``region``'s entries profiled: its
    exit code and the profile."""
    profile = cProfile.Profile()
    timed = calibrate.Meter.timed

    @contextlib.contextmanager
    def timed_and_profiled(meter, bucket):
        with timed(meter, bucket):
            if bucket != region:
                yield
                return
            profile.enable()
            try:
                yield
            finally:
                profile.disable()

    calibrate.Meter.timed = timed_and_profiled
    try:
        code = cli.main(["--workload", workload, "--trace", "0", *argv])
    finally:
        calibrate.Meter.timed = timed
    return code, pstats.Stats(profile)


def by_file(stats: pstats.Stats) -> Counter:
    """Self seconds per ``src/repro`` file, and the rest as one row."""
    rollup: Counter = Counter()
    for (path, __, __), (__, __, self_s, __, __) in stats.stats.items():
        inside = path.startswith(SRC)
        rollup[path[len(SRC):] if inside else "(outside src/repro)"] += self_s
    return rollup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="profile_e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(BY_NAME), required=True)
    parser.add_argument("--region", choices=("dml", "query"), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    passed = ["--seed", str(args.seed)] + ["--quick"] * args.quick
    code, stats = profiled_run(args.workload, args.region, passed)
    total = stats.total_tt
    print(f"\n{args.workload} {args.region}: {total:.3f} profiled self s")
    if not total:
        return 1  # the region never ran: a renamed bucket, not a profile
    stats.sort_stats("tottime").print_stats(TOP)
    print("self time per file:")
    for path, self_s in by_file(stats).most_common():
        print(f"  {self_s:8.3f} s {self_s / total:6.1%}  {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
