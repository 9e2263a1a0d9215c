"""Command line of bench_e2e.

``--workload NAME --seed N --seconds S --trace 0|1`` is the driver
contract: one workload, and as the last line of stdout one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  With
``--trace 1`` it also writes ``out/trace_<workload>.json``.

Without ``--workload`` the command makes exactly those invocations, one
fresh process each (``--quick`` stays in this one), for all four workloads
untraced and traced, passes their tables through and exits non-zero on any
failure.  A fresh process
per invocation is what keeps the numbers the same in both modes: in a
shared process, set-up regions ran up to 40% slower behind the heap
earlier workloads had left, and ``peak_rss_mb`` was the process's, not the
workload's.  ``--selfcheck`` makes the set twice and compares the two
against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import subprocess
import sys

from . import report, trace
from .calibrate import Kernel
from .harness import Repeat, run_repeat
from .workloads import BY_NAME, WORKLOADS, Workload, repeats_for

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def write_trace(workload: Workload, seed: int, traced: Repeat) -> None:
    """Spans of one traced repeat plus its per-layer table."""
    spans = traced.spans
    origin = spans[0][trace.START]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload.name}.json"
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "span_fields": [
            "name", "start_cpu_s", "end_cpu_s", "parent", "run_id", "cal_s",
        ],
        "spans": [
            [s[0], s[1] - origin, s[2] - origin, s[3], s[4], s[5]]
            for s in spans
        ],
        "timed_cal_s": trace.root_s(spans),
        "layers": traced.layers,
    }))
    print(f"[trace written to {path}]")


def run_workload(
    workload: Workload, seed: int, count: int, traced: bool, spec: dict
) -> dict:
    """``count`` same-seed repeats of one workload in this process; prints
    the metrics as a table and returns the contract's result object."""
    # traced repeats alternate with untraced ones (traced first), so the
    # tracing overhead compares neighbours in time
    schedule = [traced and i % 2 == 0 for i in range(count)]
    if traced and count == 1:
        schedule.append(False)  # the overhead needs one untraced repeat
    kernel = Kernel()
    repeats: list[Repeat] = []
    for run_id, flag in enumerate(schedule):
        repeat = run_repeat(workload, seed, kernel, flag, run_id)
        if flag:
            repeat.layers = report.layer_rows(repeat)
            # only the last traced repeat's spans are written out
            for earlier in repeats:
                earlier.spans = []
        repeats.append(repeat)

    name = workload.name
    for key, value in report.sample_notes(repeats).items():
        print(f"{name:16s} ({key} = {value})")
    if traced:
        metrics = report.per_layer(repeats)
        write_trace(workload, seed, [r for r in repeats if r.traced][-1])
    else:
        metrics = report.end_to_end(repeats)
    wanted = spec["per_layer" if traced else "end_to_end"]
    for metric in wanted:
        value = metrics[metric["name"]]
        print(f"{name:16s} {metric['name']:58s} {value:16.6g} {metric['unit']}")
    for line in report.disagreements(repeats):
        print(f"{name:16s} NOT REPEATABLE {line}")
    attempted, failed = report.verdict(repeats)
    print(
        f"{name:16s} failure_rate = {failed}/{attempted} "
        f"= {failed / attempted:.6f}"
    )
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def in_process(name: str, traced: bool, args, spec: dict) -> dict:
    workload, count = BY_NAME[name], repeats_for(args.seconds)
    if args.quick:
        workload, count = workload.scaled(0.1), 1
    return run_workload(workload, args.seed, count, traced, spec)


def in_child(name: str, traced: bool, args) -> dict:
    """The same invocation in a fresh process; passes its table through."""
    child = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(traced)),
        ],
        stdout=subprocess.PIPE, text=True,
    )
    *table, last = child.stdout.splitlines() or [""]
    print("\n".join(table), flush=True)
    try:
        return json.loads(last)
    except json.JSONDecodeError:
        raise SystemExit(
            f"bench_e2e: {name} --trace {int(traced)} died with code "
            f"{child.returncode} and no result"
        ) from None


def run_set(run_one) -> tuple[dict[str, dict[str, float]], int]:
    """Every workload untraced and traced through ``run_one(name,
    traced)``; returns ``workload -> metric -> value`` and the failures
    counted."""
    results: dict[str, dict[str, float]] = {}
    failures = 0
    for workload in WORKLOADS:
        values = results[workload.name] = {}
        for traced in (False, True):
            result = run_one(workload.name, traced)
            failures += result["failed"]
            values.update(
                {k: m["value"] for k, m in result["metrics"].items()}
            )
    return results, failures


def selfcheck(run_one, spec: dict) -> int:
    """Two full sets of the same code: every measured end-to-end metric
    must agree within its bound, every sim-clock and count metric --
    end-to-end or per-layer -- exactly.  Measured per-layer metrics have
    no bound and are not compared."""
    first, failures = run_set(run_one)
    second, more = run_set(run_one)
    failures += more
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, metrics in first.items():
        for name, a in metrics.items():
            measured = report.is_measured(name)
            if measured and name not in bounds:
                continue
            b = second[workload][name]
            drift = abs(b - a) / abs(a) if a else float(b != a)
            ok = drift <= bounds[name] if measured else a == b
            if name in bounds or not ok:
                limit = format(bounds[name], ".0%") if measured else "exact"
                print(
                    f"selfcheck {workload:16s} {name:30s} {a:14.6g} "
                    f"{b:14.6g} drift {drift:7.2%} bound {limit:>5s} "
                    f"{'ok' if ok else 'FAIL'}"
                )
            failures += not ok
        exact = sum(not report.is_measured(name) for name in metrics)
        print(f"selfcheck {workload:16s} {exact} exact metrics compared")
    print(f"selfcheck: {'PASS' if not failures else 'FAIL'}")
    return failures


def main(argv: list[str] | None = None) -> int:
    spec = report.load_spec()
    parser = argparse.ArgumentParser(prog="bench_e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke sizes: a tenth of the rows and slices, one repeat",
    )
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if args.workload is not None:
        result = in_process(args.workload, bool(args.trace), args, spec)
        print(json.dumps(result))
        return 1 if result["failed"] else 0
    # smoke numbers mean nothing, so --quick spares itself the fresh
    # processes and their start-up
    if args.quick:
        run_one = functools.partial(in_process, args=args, spec=spec)
    else:
        run_one = functools.partial(in_child, args=args)
    if args.selfcheck:
        return 1 if selfcheck(run_one, spec) else 0
    return 1 if run_set(run_one)[1] else 0
