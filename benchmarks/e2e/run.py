"""Script entry point named by ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py ...`` from the root of a checkout; puts the
checkout root and ``src/`` on ``sys.path`` so no ``PYTHONPATH`` is needed.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench_e2e: no program to measure: {ROOT / 'src' / 'repro'} missing")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
