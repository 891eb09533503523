"""Direct coverage for analysis render paths (portstats + reporting).

These were previously only exercised indirectly through the CLI; this
file pins their output structure down so refactors can't silently break
the operator-facing reports.
"""

import pytest

from repro.analysis.portstats import FabricReport, fabric_report
from repro.analysis.reporting import (
    format_time_ns,
    render_heatmap,
    render_series,
    render_table,
)
from repro.network.units import KiB
from repro.systems import malbec_mini


# -- reporting.py -------------------------------------------------------------


def test_format_time_ns_branches():
    assert format_time_ns(500.0) == "500ns"
    assert format_time_ns(1500.0) == "1.50us"
    assert format_time_ns(2_500_000.0) == "2.50ms"
    assert format_time_ns(3_200_000_000.0) == "3.20s"


def test_render_table_alignment_and_title():
    out = render_table(["name", "value"], [["a", 1], ["long-name", 22]],
                       title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", "+"}
    # all rows equal width
    assert len({len(ln) for ln in lines[1:]}) == 1


def test_render_heatmap_shape_validation():
    out = render_heatmap(["r1", "r2"], ["c1", "c2"],
                         [[1.0, 2.0], [3.0, 4.0]], title="H")
    assert "1.00" in out and "4.00" in out
    with pytest.raises(ValueError):
        render_heatmap(["r1"], ["c1"], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        render_heatmap(["r1"], ["c1", "c2"], [[1.0]])


def test_render_series_columns():
    out = render_series("t", [0, 1], {"a": [1.0, 2.0], "b": [3.0, 4.0]})
    lines = out.splitlines()
    assert lines[0].split(" | ")[0].strip() == "t"
    assert "2.000" in out and "4.000" in out


# -- portstats.py -------------------------------------------------------------


@pytest.fixture
def finished_fabric():
    fabric = malbec_mini().build()
    for src in range(1, 6):
        fabric.send(src, 0, 16 * KiB)
    fabric.send(0, 79, 4 * KiB)  # cross-group: exercises global tier
    fabric.sim.run()
    return fabric


def test_fabric_report_fields(finished_fabric):
    rep = fabric_report(finished_fabric)
    assert isinstance(rep, FabricReport)
    assert rep.packets_injected == rep.packets_delivered > 0
    assert rep.bytes_delivered > 0
    assert rep.mean_hops > 0
    assert 0.0 <= rep.nonminimal_fraction <= 1.0
    assert set(rep.tier_bytes) >= {"host", "inject"}
    for tier, util in rep.tier_utilization.items():
        assert 0.0 <= util <= 1.0, tier
    assert len(rep.hot_ports) <= 5


def test_fabric_report_render_contains_sections(finished_fabric):
    text = fabric_report(finished_fabric).render()
    assert "Fabric report" in text
    assert "packets delivered" in text
    assert "Hottest ports" in text
    assert "utilized" in text


def test_fabric_report_empty_run_renders():
    fabric = malbec_mini().build()
    rep = fabric_report(fabric)  # nothing sent, sim never ran
    assert rep.packets_delivered == 0
    assert rep.mean_hops == 0.0
    text = rep.render()
    assert "Fabric report" in text


def test_fabric_report_top_n(finished_fabric):
    rep = fabric_report(finished_fabric, top_n=2)
    assert len(rep.hot_ports) == 2
    # hottest first
    assert rep.hot_ports[0][1] >= rep.hot_ports[1][1]
