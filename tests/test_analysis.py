"""Tests for the analysis package (stats and reporting)."""

import numpy as np
import pytest

from repro.analysis import (
    format_time_ns,
    quartile_whiskers,
    render_heatmap,
    render_series,
    render_table,
    summarize,
)


# ------------------------------------------------------------------ stats


def test_percentile_and_percentiles_helpers():
    from repro.analysis.stats import percentile, percentiles

    data = list(range(1, 101))
    assert percentile(data, 50) == pytest.approx(np.percentile(data, 50))
    assert percentile(data, 99) == pytest.approx(np.percentile(data, 99))
    ps = percentiles(data)
    assert set(ps) == {50, 95, 99}
    assert ps[50] <= ps[95] <= ps[99]
    empty = percentiles([])
    assert all(np.isnan(v) for v in empty.values())


def test_summarize_keys_and_ordering():
    s = summarize(list(range(1, 101)))
    assert s["n"] == 100
    assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]
    assert s["p95"] <= s["p99"] <= s["max"]


def test_quartile_whiskers_match_paper_definition():
    data = list(range(100)) + [1000.0]  # one outlier
    w = quartile_whiskers(data)
    assert w["S"] >= min(data)
    assert w["L"] < 1000.0  # outlier excluded from the whisker
    assert w["q1"] <= w["median"] <= w["q3"]


# -------------------------------------------------------------- reporting


def test_format_time_units():
    assert format_time_ns(500) == "500ns"
    assert format_time_ns(1500) == "1.50us"
    assert format_time_ns(2.5e6) == "2.50ms"
    assert format_time_ns(3e9) == "3.00s"


def test_render_table_alignment():
    out = render_table(["name", "val"], [["a", 1], ["bb", 22]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "val" in lines[1]
    assert len(lines) == 5


def test_render_heatmap_shape_checks():
    out = render_heatmap(["r1"], ["c1", "c2"], [[1.0, 2.0]])
    assert "1.00" in out and "2.00" in out
    with pytest.raises(ValueError):
        render_heatmap(["r1", "r2"], ["c1"], [[1.0]])
    with pytest.raises(ValueError):
        render_heatmap(["r1"], ["c1", "c2"], [[1.0]])


def test_render_series_columns():
    out = render_series("size", [8, 64], {"lat": [1.5, 2.5], "bw": [0.1, 0.9]})
    assert "size" in out and "lat" in out and "bw" in out
    assert "1.500" in out and "0.900" in out
