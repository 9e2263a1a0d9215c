"""Hypothesis profiles for the whole suite (ROADMAP 1(c)).

``tier1`` -- loaded unless ``HYPOTHESIS_PROFILE`` says otherwise -- is
derandomised and keeps no example database: ``pytest -x -q`` and CI's
blocking step explore the same examples on every run and ignore whatever
a ``.hypothesis/`` directory holds, so a red tier-1 is the diff's fault
and never a coin flip or a replayed example from another tree.

``explore`` is the search: fresh randomness, a larger budget, failures
saved to ``.hypothesis/`` (CI uploads it as an artefact).  A test's own
``@settings(max_examples=...)`` still wins over the profile's, so the
larger budget reaches the tests that leave it unset; every test gets the
fresh seed.  What it finds is pinned as an ``@example`` on the test, which
is how it reaches tier-1.
"""

from __future__ import annotations

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
