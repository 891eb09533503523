"""Text renderers that print the paper's tables and figures as ASCII.

Every benchmark regenerates its figure as rows/series on stdout; these
helpers keep the formatting consistent (and make the bench output
diffable across runs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = [
    "render_table",
    "render_heatmap",
    "render_series",
    "format_time_ns",
]


def format_time_ns(ns: float) -> str:
    """Human units for a nanosecond quantity."""
    if ns < 1e3:
        return f"{ns:.0f}ns"
    if ns < 1e6:
        return f"{ns / 1e3:.2f}us"
    if ns < 1e9:
        return f"{ns / 1e6:.2f}ms"
    return f"{ns / 1e9:.2f}s"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_heatmap(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float]],
    title: Optional[str] = None,
    fmt: str = "{:.2f}",
) -> str:
    """A Fig. 9-style grid of congestion impacts."""
    if len(values) != len(row_labels):
        raise ValueError("one row of values per row label")
    rows = []
    for label, row in zip(row_labels, values):
        if len(row) != len(col_labels):
            raise ValueError("one value per column")
        rows.append([label] + [fmt.format(v) for v in row])
    return render_table([""] + list(col_labels), rows, title=title)


def render_series(
    x_label: str,
    xs: Sequence[object],
    columns: Dict[str, Sequence[float]],
    title: Optional[str] = None,
    fmt: str = "{:.3f}",
) -> str:
    """A figure's line series as a column-per-line table."""
    headers = [x_label] + list(columns)
    rows: List[List[object]] = []
    for i, x in enumerate(xs):
        row: List[object] = [x]
        for name in columns:
            row.append(fmt.format(columns[name][i]))
        rows.append(row)
    return render_table(headers, rows, title=title)
