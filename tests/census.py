"""Line census: which code in ``src/repro`` any non-test driver reaches.

    PYTHONPATH=src python -m tests.census

Copies the checkout to a temporary directory (so no committed result
file is rewritten), then runs every driver there, each in its own process
under a line recorder limited to ``src/repro``:

* the examples (``examples/*.py``),
* every chaos scenario once at seed 7 (``python -m tests.chaos``),
* the four ``bench_e2e`` workloads at seed 7,
* every ``benchmarks/bench_*.py`` (through pytest).

It prints each driver's exit status, the functions no driver enters and
the unreached lines inside functions that are entered.  A bench's timing
gate may fail under the recorder; the census records reach, not verdicts.
A run takes minutes (about 12 on a 2-core machine); it runs on demand,
not as a gate.

The recorder is :class:`LineRecorder`; :func:`report` reads what it
recorded against the compiled modules.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from inspect import CO_NEWLOCALS

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path("src", "repro")
E2E_WORKLOADS = ("oltap_mixed", "ingest_firehose", "scan_static", "scan_churn")
#: Seconds one driver may run before the census gives up on it.
DRIVER_TIMEOUT = 1800
_NEW = object()


class LineRecorder:
    """Records, while active, the code under ``package`` that runs: each
    code object entered, as ``(path relative to package, first line)``
    in ``entered``, and each line executed, as ``(path, line)`` in
    ``lines``.  A code object stops being traced once it has been entered
    and every line of it seen."""

    def __init__(self, package: pathlib.Path) -> None:
        self.prefix = str(package.resolve()) + os.sep
        self.entered: set[tuple[str, int]] = set()
        self.lines: set[tuple[str, int]] = set()
        #: code -> (its path, its lines not seen yet), or None for code
        #: outside the package and code done with.
        self._state: dict = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        state = self._state.get(code, _NEW)
        if state is _NEW:
            state = None
            if code.co_filename.startswith(self.prefix):
                rel = code.co_filename[len(self.prefix):]
                rel = rel.replace(os.sep, "/")
                self.entered.add((rel, code.co_firstlineno))
                unseen = {ln for *__, ln in code.co_lines() if ln is not None}
                state = (rel, unseen)
            self._state[code] = state
        return None if state is None else self._line

    def _line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            state = self._state[code]
            if state is None:
                return None
            rel, unseen = state
            if frame.f_lineno in unseen:
                unseen.discard(frame.f_lineno)
                self.lines.add((rel, frame.f_lineno))
                if not unseen:
                    self._state[code] = None
                    return None
        return self._line

    def __enter__(self) -> "LineRecorder":
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)


def _functions(package: pathlib.Path):
    """Every function compiled from the package's modules, as
    ``(relative path, qualified name, first line, its lines)``."""
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & CO_NEWLOCALS and not code.co_name.startswith(
                "<"
            ):
                lines = {ln for *__, ln in code.co_lines() if ln is not None}
                yield rel, code.co_qualname, code.co_firstlineno, lines


def report(package: pathlib.Path, entered, lines):
    """``(unentered, unreached)`` from a recorder's ``entered`` and
    ``lines``: the qualified names of the functions not entered, by file,
    and the unreached lines of each entered function, by ``(file,
    qualified name)``.  A function's first line (its ``def``, or its
    first decorator) counts as reached when it is entered."""
    unentered: dict[str, list[str]] = defaultdict(list)
    unreached: dict[tuple[str, str], list[int]] = {}
    for rel, qualname, first, own in _functions(package):
        if (rel, first) not in entered:
            unentered[rel].append(qualname)
            continue
        missed = sorted(
            ln for ln in own if ln != first and (rel, ln) not in lines
        )
        if missed:
            unreached[rel, qualname] = missed
    return dict(unentered), unreached


def _ranges(numbers: list[int]) -> str:
    out, start = [], None
    for i, n in enumerate(numbers):
        if start is None:
            start = n
        if i + 1 == len(numbers) or numbers[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ",".join(out)


def drivers(root: pathlib.Path):
    """``(name, working directory, argv after the interpreter)``."""
    for path in sorted((root / "examples").glob("*.py")):
        yield f"example {path.stem}", root, [str(path)]
    sys.path.insert(0, str(root / "src"))
    from tests.chaos.scenarios import SCENARIOS

    for name in sorted(SCENARIOS):
        yield f"chaos {name}", root, [
            "-m", "tests.chaos", "--scenario", name, "--seed", "7",
            "--once", "--quiet",
        ]
    for workload in E2E_WORKLOADS:
        yield f"bench_e2e {workload}", root, [
            str(root / "benchmarks" / "e2e" / "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", "8", "--trace", "0",
        ]
    for path in sorted((root / "benchmarks").glob("bench_*.py")):
        yield f"bench {path.stem}", root / "benchmarks", [
            "-m", "pytest", path.name, "-q", "-p", "no:cacheprovider",
        ]


def _record_child(out: str, argv: list[str]) -> int:
    """Run one driver in this process under the recorder; write what it
    recorded to ``out``; return the driver's exit status."""
    status = 0
    recorder = LineRecorder(ROOT / PACKAGE)
    try:
        with recorder:
            if argv[0] == "-m":
                sys.argv = argv[1:]
                runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
            else:
                sys.argv = argv
                runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code
        status = code if isinstance(code, int) else int(code is not None)
    finally:
        pathlib.Path(out).write_text(json.dumps({
            "entered": sorted(recorder.entered),
            "lines": sorted(recorder.lines),
        }))
    return status


def _ignore(root: pathlib.Path):
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    e2e_out = root / "benchmarks" / "e2e" / "out"

    def ignore(directory, names):
        return [
            n for n in names
            if n in skip or n.endswith(".egg-info")
            or pathlib.Path(directory, n) == e2e_out
        ]

    return ignore


def census() -> int:
    entered: set[tuple[str, int]] = set()
    lines: set[tuple[str, int]] = set()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        copy = pathlib.Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=_ignore(ROOT))
        env = dict(os.environ, PYTHONPATH=f"{copy / 'src'}{os.pathsep}{copy}")
        print(f"{'driver':<48} {'exit':>5} {'seconds':>8}")
        for name, cwd, argv in drivers(copy):
            out = pathlib.Path(tmp, "lines.json")
            started = time.perf_counter()
            try:
                status = subprocess.run(
                    [sys.executable, "-m", "tests.census", "--record",
                     str(out), "--", *argv],
                    cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, timeout=DRIVER_TIMEOUT,
                ).returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
            seconds = time.perf_counter() - started
            failed += status != 0
            print(f"{name:<48} {status!s:>5} {seconds:8.1f}", flush=True)
            if out.exists():
                recorded = json.loads(out.read_text())
                entered.update(map(tuple, recorded["entered"]))
                lines.update(map(tuple, recorded["lines"]))
                out.unlink()
        unentered, unreached = report(copy / PACKAGE, entered, lines)
    print(
        f"\nfunctions no driver enters "
        f"({sum(map(len, unentered.values()))}):"
    )
    for rel, names in unentered.items():
        print(f"  {rel}: {', '.join(names)}")
    print(
        f"\nunreached lines in entered functions "
        f"({sum(map(len, unreached.values()))} lines in "
        f"{len(unreached)} functions):"
    )
    for (rel, qualname), missed in unreached.items():
        print(f"  {rel}:{_ranges(missed)} {qualname}")
    print(f"\n{failed} driver(s) exited non-zero (reach is still recorded)")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--record"]:
        return _record_child(argv[1], argv[3:])  # --record OUT -- ...
    argparse.ArgumentParser(
        prog="python -m tests.census",
        description="which src/repro code the non-test drivers reach",
    ).parse_args(argv)
    return census()


if __name__ == "__main__":
    sys.exit(main())
