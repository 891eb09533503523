"""Analysis: sample summaries and paper-style reporting."""

from .reporting import (
    format_time_ns,
    render_heatmap,
    render_series,
    render_table,
)
from .portstats import FabricReport, fabric_report
from .stats import quartile_whiskers, summarize

__all__ = [
    "summarize",
    "quartile_whiskers",
    "render_table",
    "render_heatmap",
    "render_series",
    "format_time_ns",
    "FabricReport",
    "fabric_report",
]
