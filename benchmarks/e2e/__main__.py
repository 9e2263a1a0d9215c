"""``PYTHONPATH=src python -m benchmarks.e2e`` -- same as ``run.py``."""

import sys

from .cli import main

sys.exit(main())
