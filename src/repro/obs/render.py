"""Plain-text rendering of tables and figures.

The benchmark harness prints each experiment in the same shape the paper
reports it: tables as aligned columns, figures as sampled series.
Everything is plain text so results land in CI logs verbatim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import Series


def speedup(baseline: float, improved: float) -> float:
    """How many times faster ``improved`` is than ``baseline``."""
    if improved <= 0:
        raise ValueError("improved latency must be positive")
    return baseline / improved


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str = "",
) -> str:
    """Render an aligned plain-text table."""
    cells = [[_format_cell(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_figure(
    series: dict[str, "Series"],
    title: str = "",
    samples: int = 12,
) -> str:
    """Render time series as a sampled table (one column per series).

    A text-mode stand-in for a line plot: enough to see who advances and
    whether anyone lags (Fig. 11's question).
    """
    all_times = sorted({t for s in series.values() for t, __ in s.points})
    if not all_times:
        return title
    stride = max(1, len(all_times) // samples)
    sampled = all_times[::stride]
    if sampled[-1] != all_times[-1]:
        sampled.append(all_times[-1])
    headers = ["time(s)"] + list(series)
    rows = [
        [f"{t:.2f}"] + [series[name].value_at(t) for name in series]
        for t in sampled
    ]
    return render_table(headers, rows, title=title)
