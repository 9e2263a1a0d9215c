"""Small statistics the benchmark reports with: percentiles under the
"at least ten samples beyond" rule, and sim-clock visibility lag."""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

#: tail percentiles a report may use, lowest first, each with the number
#: of samples it takes to leave ten beyond it
PERCENTILE_LADDER = ((90.0, 100), (95.0, 200), (99.0, 1_000), (99.9, 10_000))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100) of a non-empty
    sample."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_supported_percentile(n_samples: int) -> float:
    """The highest percentile of the ladder that still has at least ten
    samples beyond it; the median when even p90 does not."""
    supported = 50.0
    for p, samples_needed in PERCENTILE_LADDER:
        if n_samples >= samples_needed:
            supported = p
    return supported


def visibility_lags(
    commit_log: Sequence[tuple[float, int]],
    history: Sequence[tuple[float, int]],
) -> list[float]:
    """Sim seconds from each primary commit to the first published
    QuerySCN that covers its commitSCN.  ``history`` is the standby's
    ``(sim time, QuerySCN)`` publication list (ascending in both)."""
    published = [scn for _, scn in history]
    lags = []
    for committed_at, commit_scn in commit_log:
        index = bisect_left(published, commit_scn)
        if index == len(published):
            raise ValueError(f"commitSCN {commit_scn} was never published")
        lags.append(history[index][0] - committed_at)
    return lags
